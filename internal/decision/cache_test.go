package decision

import (
	"sync"
	"testing"
)

func TestGetMissOnEmpty(t *testing.T) {
	c := New(64)
	if _, _, ok := c.Get(1, 0, 0, 0); ok {
		t.Fatal("hit on empty cache")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d", st.Misses)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := New(64)
	c.Put(7, 3, true, 42)
	just, allowed, ok := c.Get(7, 3, 0, 0)
	if !ok || !allowed || just != 42 {
		t.Fatalf("got (%d,%v,%v)", just, allowed, ok)
	}
	c.Put(8, 3, false, 0)
	if _, allowed, ok := c.Get(8, 5, 0, 3); !ok || allowed {
		t.Fatal("negative verdict lost")
	}
}

func TestGenerationVisibility(t *testing.T) {
	c := New(64)
	c.Put(7, 10, true, 1)
	// A snapshot older than the entry cannot see it.
	if _, _, ok := c.Get(7, 9, 0, 0); ok {
		t.Fatal("entry from the future served to an older snapshot")
	}
	// A snapshot at or after the entry's generation can.
	if _, _, ok := c.Get(7, 10, 0, 0); !ok {
		t.Fatal("entry invisible at its own generation")
	}
	if _, _, ok := c.Get(7, 99, 0, 0); !ok {
		t.Fatal("entry invisible at a later generation")
	}
}

func TestFloors(t *testing.T) {
	c := New(64)
	c.Put(1, 5, true, 9)
	c.Put(2, 5, false, 0)
	// Positive survives a later additive delta (posFloor stays, negFloor moves).
	if _, allowed, ok := c.Get(1, 6, 0, 6); !ok || !allowed {
		t.Fatal("positive did not survive an additive delta")
	}
	// Negative does not survive an additive delta.
	if _, _, ok := c.Get(2, 6, 0, 6); ok {
		t.Fatal("negative survived an additive delta")
	}
	// Nothing survives a removal (both floors move).
	if _, _, ok := c.Get(1, 7, 7, 7); ok {
		t.Fatal("positive survived a removal")
	}
	if _, _, ok := c.Get(2, 7, 7, 7); ok {
		t.Fatal("negative survived a removal")
	}
}

func TestNewerEntryKept(t *testing.T) {
	c := New(64)
	c.Put(7, 10, true, 1)
	c.Put(7, 4, false, 0) // stale write loses
	if _, allowed, ok := c.Get(7, 10, 0, 0); !ok || !allowed {
		t.Fatal("newer entry was clobbered by an older write")
	}
}

func TestEvictionAccounting(t *testing.T) {
	c := New(ways) // a single bucket
	n := 3 * ways
	for fp := uint32(1); fp <= uint32(n); fp++ {
		c.Put(fp, uint64(fp), true, fp)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded after overfilling one bucket: %+v", st)
	}
	if st.Stores != uint64(n) {
		t.Fatalf("stores = %d, want %d", st.Stores, n)
	}
	// The highest-generation entries are the ones retained.
	hits := 0
	for fp := uint32(1); fp <= uint32(n); fp++ {
		if _, _, ok := c.Get(fp, uint64(n), 0, 0); ok {
			hits++
		}
	}
	if hits != ways {
		t.Fatalf("%d entries resident in a %d-way bucket", hits, ways)
	}
	if _, _, ok := c.Get(uint32(n), uint64(n), 0, 0); !ok {
		t.Fatal("newest entry was evicted instead of the oldest")
	}
}

func TestDisabledCache(t *testing.T) {
	for _, c := range []*Cache{New(0), New(-5), {}} {
		c.Put(1, 1, true, 1)
		if _, _, ok := c.Get(1, 1, 0, 0); ok {
			t.Fatal("disabled cache returned a hit")
		}
		if c.Enabled() {
			t.Fatal("disabled cache claims enabled")
		}
		if st := c.Stats(); st.Slots != 0 || st.Stores != 0 || st.Misses != 0 {
			t.Fatalf("disabled cache counted traffic: %+v", st)
		}
	}
}

func TestSlotRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, ways}, {ways, ways}, {ways + 1, 2 * ways}, {100, 128}, {8192, 8192},
	} {
		if got := New(tc.in).Stats().Slots; got != tc.want {
			t.Fatalf("New(%d) has %d slots, want %d", tc.in, got, tc.want)
		}
	}
}

func TestZeroFingerprintRejected(t *testing.T) {
	c := New(64)
	c.Put(0, 1, true, 1)
	if _, _, ok := c.Get(0, 1, 0, 0); ok {
		t.Fatal("fingerprint 0 must never hit")
	}
	if st := c.Stats(); st.Stores != 0 {
		t.Fatal("fingerprint 0 was stored")
	}
}

// TestConcurrentPutGet hammers one small cache from many goroutines; run
// under -race this validates the all-atomic seqlock protocol, and the
// self-check validates that a hit never returns a verdict inconsistent with
// what some writer stored for that fingerprint (just must equal fp here).
func TestConcurrentPutGet(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				fp := uint32(i%200 + 1)
				if g%2 == 0 {
					c.Put(fp, uint64(i), true, fp)
				} else if just, allowed, ok := c.Get(fp, ^uint64(0)>>1, 0, 0); ok {
					if !allowed || just != fp {
						errc <- errInconsistent(fp, just)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

type errInconsistentT struct{ fp, just uint32 }

func errInconsistent(fp, just uint32) error { return errInconsistentT{fp, just} }
func (e errInconsistentT) Error() string    { return "torn read: fp/just mismatch" }
