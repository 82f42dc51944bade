package tenant

import (
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/decision"
	"adminrefine/internal/storage"
	"adminrefine/internal/workload"
)

// gatedFile parks the next Truncate of a tenant's WAL — the step of a
// compaction that follows the snapshot rename — once the test has armed it,
// until the test lets it go.
type gatedFile struct {
	storage.File
	armed            *atomic.Bool
	reached, release chan struct{}
}

func (f *gatedFile) Truncate(size int64) error {
	if f.armed.CompareAndSwap(true, false) {
		f.reached <- struct{}{}
		<-f.release
	}
	return f.File.Truncate(size)
}

// TestEvictShutsDownOutsideTheShardLock: an explicit Evict goes through the
// eviction path budget evictions use. While its compaction is parked on disk
// I/O, another tenant of the same shard is served (the shard lock is free),
// and an acquire of the victim's own name waits for the shutdown instead of
// reopening a half-compacted directory — then sees every acknowledged write.
func TestEvictShutsDownOutsideTheShardLock(t *testing.T) {
	var armed atomic.Bool
	reached, release := make(chan struct{}), make(chan struct{})
	reg := churnRegistry(t, t.TempDir(), Options{Shards: 1, OpenFile: func(path string, flag int, perm os.FileMode) (storage.File, error) {
		f, err := os.OpenFile(path, flag, perm)
		if err != nil || !strings.Contains(path, "/victim/") {
			return f, err
		}
		return &gatedFile{File: f, armed: &armed, reached: reached, release: release}, nil
	}})
	defer reg.Close()
	if res, err := reg.Submit("victim", workload.ChurnGrant(0, 16, 16)); err != nil || res.Outcome != command.Applied {
		t.Fatalf("submit: outcome=%v err=%v", res.Outcome, err)
	}
	if _, err := reg.Stats("other"); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	evicted := make(chan bool, 1)
	go func() { evicted <- reg.Evict("victim") }()
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("Evict never reached its compaction")
	}
	// Mid-shutdown: the shard serves its other tenant...
	served := make(chan error, 1)
	go func() { _, err := reg.Authorize("other", workload.ChurnGrant(1, 16, 16)); served <- err }()
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Evict holds the shard lock across its shutdown: the shard's other tenant is stalled")
	}
	// ...and the victim's name is closing: an acquire waits.
	reopened := make(chan Stats, 1)
	go func() {
		st, err := reg.Stats("victim")
		if err != nil {
			t.Error(err)
		}
		reopened <- st
	}()
	select {
	case st := <-reopened:
		t.Fatalf("victim reopened mid-shutdown at generation %d", st.Generation)
	case <-time.After(50 * time.Millisecond):
	}
	release <- struct{}{}
	if !<-evicted {
		t.Fatal("Evict(victim) = false for an idle resident tenant")
	}
	if st := <-reopened; st.Generation != 1 || !st.Recovered.SnapshotLoaded || st.Recovered.Records != 0 {
		t.Fatalf("victim reopened at generation %d, recovery %+v; want the compacted generation 1", st.Generation, st.Recovered)
	}
}

// TestReopenedTenantCacheCountersStartAtZero: an evicted tenant's verdicts
// and counters go with its engine. The reopened tenant interns afresh, so its
// cache block starts at zero — no hit, store or slot of its previous life —
// and the first repeat of the same command misses before it hits again.
func TestReopenedTenantCacheCountersStartAtZero(t *testing.T) {
	reg := churnRegistry(t, t.TempDir(), Options{})
	defer reg.Close()
	q := workload.ChurnGrant(0, 16, 16)
	authorize := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if res, err := reg.Authorize("t", q); err != nil || !res.OK {
				t.Fatalf("authorize %d: err=%v ok=%v", i, err, res.OK)
			}
		}
	}
	authorize(4) // doorkeeper pass, intern + store, two hits
	st, err := reg.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Slots != 1 || st.Cache.Stores != 1 || st.Cache.Hits != 2 {
		t.Fatalf("before eviction: %+v, want 1 slot, 1 store, 2 hits", st.Cache)
	}
	if !reg.Evict("t") {
		t.Fatal("Evict(t) = false")
	}
	if st, err = reg.Stats("t"); err != nil {
		t.Fatal(err)
	}
	if st.Cache != (decision.Stats{}) {
		t.Fatalf("reopened tenant's cache counters: %+v, want all zero", st.Cache)
	}
	authorize(3)
	if st, err = reg.Stats("t"); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Slots != 1 || st.Cache.Misses != 1 || st.Cache.Stores != 1 || st.Cache.Hits != 1 {
		t.Fatalf("after reopening: %+v, want 1 slot, 1 miss, 1 store, 1 hit", st.Cache)
	}
}
