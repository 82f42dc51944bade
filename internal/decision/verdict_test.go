package decision

import (
	"sync"
	"testing"
)

func TestVerdictEmpty(t *testing.T) {
	var v Verdict
	for _, gen := range []uint64{0, 1, maxVerdictGen} {
		if _, _, ok := v.Get(gen, 0, 0); ok {
			t.Fatalf("empty verdict hit at generation %d", gen)
		}
	}
}

// TestVerdictRoundTripAtTheLimits: the largest generation and the largest
// privilege id the word holds come back exactly, beside either allowed bit,
// and a deny at generation 0 is not mistaken for an empty word.
func TestVerdictRoundTripAtTheLimits(t *testing.T) {
	const maxJust = 1<<21 - 1
	for _, tc := range []struct {
		gen     uint64
		allowed bool
		just    uint32
	}{
		{maxVerdictGen, true, maxJust},
		{maxVerdictGen, false, 0},
		{0, true, maxJust},
		{0, false, 0},
		{1 << 40, true, 1 << 20},
	} {
		var v Verdict
		if !v.Put(tc.gen, tc.allowed, tc.just) {
			t.Fatalf("Put(%d, %v, %d) not stored", tc.gen, tc.allowed, tc.just)
		}
		just, allowed, ok := v.Get(tc.gen, tc.gen, tc.gen)
		if !ok || allowed != tc.allowed || just != tc.just {
			t.Fatalf("Put(%d, %v, %d) read back (%d, %v, %v)", tc.gen, tc.allowed, tc.just, just, allowed, ok)
		}
	}
	if maxVerdictGen != 1<<41-1 {
		t.Fatalf("maxVerdictGen = %d, want 2^41-1", uint64(maxVerdictGen))
	}
}

func TestVerdictOversizedIsNotStored(t *testing.T) {
	var v Verdict
	if v.Put(maxVerdictGen+1, true, 1) || v.Put(1<<63, false, 0) {
		t.Fatal("a generation past 41 bits was stored")
	}
	if v.Put(1, true, 1<<21) {
		t.Fatal("a privilege id past 21 bits was stored")
	}
	if _, _, ok := v.Get(maxVerdictGen, 0, 0); ok {
		t.Fatal("a refused Put left a verdict behind")
	}
	// A refused Put also leaves a stored verdict alone.
	v.Put(5, true, 9)
	v.Put(maxVerdictGen+1, false, 0)
	if just, allowed, ok := v.Get(5, 0, 0); !ok || !allowed || just != 9 {
		t.Fatalf("stored verdict disturbed: (%d, %v, %v)", just, allowed, ok)
	}
}

// TestVerdictFloors: a verdict is invisible to an older snapshot, a positive
// survives an additive delta and a negative does not, a removal drops both,
// and a stale write never clobbers a newer verdict.
func TestVerdictFloors(t *testing.T) {
	var pos, neg Verdict
	pos.Put(5, true, 9)
	neg.Put(5, false, 0)
	if _, _, ok := pos.Get(4, 0, 0); ok {
		t.Fatal("verdict from the future served to an older snapshot")
	}
	if just, allowed, ok := pos.Get(6, 0, 6); !ok || !allowed || just != 9 {
		t.Fatal("positive did not survive an additive delta")
	}
	if _, _, ok := neg.Get(6, 0, 6); ok {
		t.Fatal("negative survived an additive delta")
	}
	if _, allowed, ok := neg.Get(6, 0, 5); !ok || allowed {
		t.Fatal("negative lost at its own floor")
	}
	for _, v := range []*Verdict{&pos, &neg} {
		if _, _, ok := v.Get(7, 7, 7); ok {
			t.Fatal("verdict survived a removal")
		}
	}
	pos.Put(4, false, 0) // stale write loses
	if _, allowed, ok := pos.Get(5, 0, 0); !ok || !allowed {
		t.Fatal("newer verdict clobbered by an older write")
	}
}

// TestVerdictNewerWinsConcurrently: writers race Puts of every generation
// up to last, each writer its own residue class, while readers check that
// every hit is a verdict some writer stored. Only one writer ever puts last,
// and afterwards the word holds it: no older Put overwrote it. Run under
// -race.
func TestVerdictNewerWinsConcurrently(t *testing.T) {
	const writers, last = 4, 2000
	var v Verdict
	var wg sync.WaitGroup
	errc := make(chan string, writers+2)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for gen := uint64(g); gen <= last; gen += writers {
				v.Put(gen, gen%2 == 0, uint32(gen))
			}
		}(g)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if just, allowed, ok := v.Get(last, 0, 0); ok && allowed && just%2 != 0 {
					errc <- "torn verdict: an odd justification read as allowed"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if msg, bad := <-errc; bad {
		t.Fatal(msg)
	}
	if just, allowed, ok := v.Get(last, last, last); !ok || !allowed || just != last {
		t.Fatalf("after the race: (%d, %v, %v), want the newest verdict", just, allowed, ok)
	}
	if v.Put(last-1, false, 0) {
		t.Fatal("an older verdict overwrote the newest")
	}
}

// The tests below carry the scenarios of the deleted decision.Cache over to
// the Verdict word, which applies the same validity rules.

// TestGetMissOnEmpty: an empty word misses under any generation and floors.
func TestGetMissOnEmpty(t *testing.T) {
	var v Verdict
	for _, f := range [][3]uint64{{0, 0, 0}, {1, 0, 0}, {1, 1, 1}, {maxVerdictGen, 0, maxVerdictGen}} {
		if _, _, ok := v.Get(f[0], f[1], f[2]); ok {
			t.Fatalf("empty verdict hit at Get(%d, %d, %d)", f[0], f[1], f[2])
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	var pos, neg Verdict
	pos.Put(3, true, 42)
	just, allowed, ok := pos.Get(3, 0, 0)
	if !ok || !allowed || just != 42 {
		t.Fatalf("got (%d,%v,%v)", just, allowed, ok)
	}
	neg.Put(3, false, 0)
	if _, allowed, ok := neg.Get(5, 0, 3); !ok || allowed {
		t.Fatal("negative verdict lost")
	}
}

func TestGenerationVisibility(t *testing.T) {
	var v Verdict
	v.Put(10, true, 1)
	// A snapshot older than the verdict cannot see it.
	if _, _, ok := v.Get(9, 0, 0); ok {
		t.Fatal("verdict from the future served to an older snapshot")
	}
	// A snapshot at or after the verdict's generation can.
	if _, _, ok := v.Get(10, 0, 0); !ok {
		t.Fatal("verdict invisible at its own generation")
	}
	if _, _, ok := v.Get(99, 0, 0); !ok {
		t.Fatal("verdict invisible at a later generation")
	}
}

func TestFloors(t *testing.T) {
	var pos, neg Verdict
	pos.Put(5, true, 9)
	neg.Put(5, false, 0)
	// Positive survives a later additive delta (posFloor stays, negFloor moves).
	if _, allowed, ok := pos.Get(6, 0, 6); !ok || !allowed {
		t.Fatal("positive did not survive an additive delta")
	}
	// Negative does not survive an additive delta.
	if _, _, ok := neg.Get(6, 0, 6); ok {
		t.Fatal("negative survived an additive delta")
	}
	// Nothing survives a removal (both floors move).
	if _, _, ok := pos.Get(7, 7, 7); ok {
		t.Fatal("positive survived a removal")
	}
	if _, _, ok := neg.Get(7, 7, 7); ok {
		t.Fatal("negative survived a removal")
	}
}

func TestNewerEntryKept(t *testing.T) {
	var v Verdict
	v.Put(10, true, 1)
	if v.Put(4, false, 0) { // stale write loses
		t.Fatal("an older write reported stored")
	}
	if _, allowed, ok := v.Get(10, 0, 0); !ok || !allowed {
		t.Fatal("newer verdict was clobbered by an older write")
	}
}
