package tenant

import (
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/policy"
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

// TestEvictedCacheIsRecycledEmpty: the decision cache of an evicted tenant
// is the one the next opened tenant decides through, and it arrives empty —
// no verdict and no counter of its previous owner. The second tenant interns
// the same command first, so it gets the fingerprint the first tenant cached
// an allow under, at the same generation: a surviving entry would be served.
func TestEvictedCacheIsRecycledEmpty(t *testing.T) {
	reg := churnRegistry(t, t.TempDir(), Options{Bootstrap: func(name string) *policy.Policy {
		if name == "first" {
			return workload.ChurnPolicy(16, 16)
		}
		p := policy.New() // the same user and role, and nobody may administrate
		p.Assign("cu0000", "member")
		p.DeclareRole("c0000")
		return p
	}})
	defer reg.Close()
	q := workload.ChurnGrant(0, 16, 16)
	for i := 0; i < 4; i++ { // doorkeeper pass, intern + cache fill, two hits
		if res, err := reg.Authorize("first", q); err != nil || !res.OK {
			t.Fatalf("authorize %d: err=%v ok=%v", i, err, res.OK)
		}
	}
	old := resident(t, reg, "first").engine().Cache()
	if st := old.Stats(); st.Stores == 0 || st.Hits < 2 {
		t.Fatalf("first tenant never used its cache: %+v", st)
	}
	if !reg.Evict("first") {
		t.Fatal("Evict(first) = false")
	}
	st, err := reg.Stats("second")
	if err != nil {
		t.Fatal(err)
	}
	if got := resident(t, reg, "second").engine().Cache(); got != old {
		t.Fatal("the evicted tenant's cache was not handed to the next open")
	}
	if st.Cache.Slots == 0 || st.Cache.Hits+st.Cache.Misses+st.Cache.Stores+st.Cache.Evictions != 0 {
		t.Fatalf("recycled cache arrived with its previous owner's counters: %+v", st.Cache)
	}
	for i := 0; i < 4; i++ {
		if res, err := reg.Authorize("second", q); err != nil || res.OK {
			t.Fatalf("authorize %d under the new owner: err=%v ok=%v, want denied", i, err, res.OK)
		}
	}
	if st := old.Stats(); st.Stores == 0 || st.Hits < 2 {
		t.Fatalf("second tenant never used the recycled cache: %+v", st)
	}
}
