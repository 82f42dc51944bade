package replication_test

// The two commit orders, pinned through the storage.Options.OpenFile seam:
// a primary lands, syncs, then publishes; a replicated apply lands,
// publishes, then syncs — and still reports no position before the sync.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/fault"
	"adminrefine/internal/policy"
	"adminrefine/internal/replication"
	"adminrefine/internal/server"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

const users, roles = 16, 16

// disk hands out real files that count their fsyncs, can park them on a latch
// or fail the next one, and remember how much of each file a power loss keeps.
type disk struct {
	mu       sync.Mutex
	files    map[string]*diskFile
	syncs    int
	failNext bool
	latch    chan struct{} // non-nil: every Sync parks until it is closed
	parked   chan struct{} // one token per parked Sync
}

type diskFile struct {
	*os.File
	d      *disk
	synced int64
}

func newDisk() *disk {
	// parked is buffered past any number of fsyncs a test parks at once, so a
	// Sync nobody awaits never blocks on reporting itself.
	return &disk{files: make(map[string]*diskFile), parked: make(chan struct{}, 64)}
}

func (d *disk) open(path string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	df := &diskFile{File: f, d: d, synced: st.Size()}
	d.mu.Lock()
	d.files[path] = df
	d.mu.Unlock()
	return df, nil
}

func (f *diskFile) Sync() error {
	f.d.mu.Lock()
	f.d.syncs++
	latch, fail := f.d.latch, f.d.failNext
	f.d.failNext = false
	f.d.mu.Unlock()
	if latch != nil {
		f.d.parked <- struct{}{}
		<-latch
	}
	if fail {
		return fault.ErrInjected
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	st, err := f.File.Stat()
	f.d.mu.Lock()
	f.synced = st.Size()
	f.d.mu.Unlock()
	return err
}

// hold parks every Sync from now on; the returned func lets them through.
func (d *disk) hold() (release func()) {
	latch := make(chan struct{})
	d.mu.Lock()
	d.latch = latch
	d.mu.Unlock()
	return func() {
		d.mu.Lock()
		d.latch = nil
		d.mu.Unlock()
		close(latch)
	}
}

func (d *disk) failNextSync() {
	d.mu.Lock()
	d.failNext = true
	d.mu.Unlock()
}

func (d *disk) awaitParked(t *testing.T) {
	t.Helper()
	select {
	case <-d.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no fsync arrived at the latch")
	}
}

func (d *disk) syncCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// unsynced sums, over the open logs, the bytes past the last completed fsync.
func (d *disk) unsynced(t *testing.T) (n int64) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for path, f := range d.files {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size() - f.synced
	}
	return n
}

// crashView copies the data directory as a power loss would leave it: every
// log cut at its last completed fsync, every other file whole.
func (d *disk) crashView(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		rel, _ := filepath.Rel(src, path)
		if err != nil || info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		d.mu.Lock()
		if f := d.files[path]; f != nil && f.synced < int64(len(data)) {
			data = data[:f.synced]
		}
		d.mu.Unlock()
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// cluster is a -sync primary behind a Source and a -sync replica registry on
// a disk the test controls.
type cluster struct {
	prim, fol *tenant.Registry
	folDir    string
	d         *disk
	url       string
	writes    int
}

func newCluster(t *testing.T, primDisk *disk) *cluster {
	t.Helper()
	c := &cluster{folDir: t.TempDir(), d: newDisk()}
	popts := tenant.Options{Dir: t.TempDir(), Mode: engine.Refined, Sync: true}
	if primDisk != nil {
		popts.OpenFile = primDisk.open
	}
	c.prim = tenant.New(popts)
	t.Cleanup(func() { c.prim.Close() })
	if err := c.prim.InstallPolicy("t", workload.ChurnPolicy(users, roles)); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	src := replication.NewSource(c.prim, replication.SourceOptions{})
	src.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { src.Close(); ts.Close() })
	c.url = ts.URL
	c.fol = tenant.New(tenant.Options{Dir: c.folDir, Mode: engine.Refined, Sync: true, OpenFile: c.d.open})
	t.Cleanup(func() { c.fol.Close() })
	return c
}

// write applies the next churn grant on the primary and returns its generation.
func (c *cluster) write(t *testing.T) uint64 {
	t.Helper()
	res, err := c.prim.Submit("t", workload.ChurnGrant(c.writes, users, roles))
	if err != nil || res.Outcome != command.Applied {
		t.Fatalf("primary write %d: outcome %v, %v", c.writes, res.Outcome, err)
	}
	c.writes++
	return uint64(c.writes)
}

// seed installs the primary's snapshot on the replica without a follower.
func (c *cluster) seed(t *testing.T) {
	t.Helper()
	seq, seqEpoch, data, audit, err := c.prim.SnapshotDump("t")
	if err != nil {
		t.Fatal(err)
	}
	var w policy.Wire
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	pol, err := w.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.fol.InstallReplicaSnapshot("t", pol, seq, seqEpoch, audit); err != nil {
		t.Fatal(err)
	}
}

// pulled returns what the primary ships past the replica's durable position.
func (c *cluster) pulled(t *testing.T) []storage.Record {
	t.Helper()
	seq, epoch, err := c.fol.ReplicaPosition("t")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.prim.PullWAL(context.Background(), "t", seq, epoch, 0)
	if err != nil || res.SnapshotNeeded {
		t.Fatalf("pull after %d: %+v, %v", seq, res, err)
	}
	return res.Records
}

func (c *cluster) follow(t *testing.T, reg *tenant.Registry) *replication.Follower {
	t.Helper()
	f := replication.NewFollower(reg, replication.FollowerOptions{
		Upstream: c.url, PollWait: 200 * time.Millisecond, Backoff: 10 * time.Millisecond, SyncWait: 5 * time.Second,
	})
	t.Cleanup(f.Close)
	if err := f.Ensure("t"); err != nil {
		t.Fatal(err)
	}
	return f
}

// cursorAt waits until the follower's pull cursor — advanced only after
// ApplyReplicated returned — reaches gen.
func cursorAt(t *testing.T, f *replication.Follower, gen uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if st, ok := f.LagStats("t"); ok && st.Generation >= gen {
			return
		}
	}
	st, _ := f.LagStats("t")
	t.Fatalf("follower cursor stuck: %+v, want generation %d", st, gen)
}

func generation(t *testing.T, reg *tenant.Registry) uint64 {
	t.Helper()
	gen, _, err := reg.WaitGenerationCtx(context.Background(), "t", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// (a) With the fsync parked, a replica's apply is visible and not yet
// reported; a primary's submit is neither.
func TestReplicaPublishesBeforeItsFsyncPrimaryAfter(t *testing.T) {
	pd := newDisk()
	c := newCluster(t, pd)
	c.seed(t)
	g := c.write(t)
	recs := c.pulled(t)

	release := c.d.hold()
	applied := make(chan error, 1)
	go func() {
		gen, err := c.fol.ApplyReplicated("t", recs)
		if err == nil && gen != g {
			err = fmt.Errorf("apply returned generation %d, want %d", gen, g)
		}
		applied <- err
	}()
	c.d.awaitParked(t)
	if gen, ok, err := c.fol.WaitGenerationCtx(context.Background(), "t", g, 5*time.Second); err != nil || !ok {
		t.Fatalf("replica: generation %d not observable while its fsync is parked (at %d, %v)", g, gen, err)
	}
	select {
	case err := <-applied:
		t.Fatalf("ApplyReplicated returned (%v) before its fsync", err)
	default:
	}
	release()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if seq, _, _ := c.fol.ReplicaPosition("t"); seq != g {
		t.Fatalf("replica position %d after the apply, want %d", seq, g)
	}

	release = pd.hold()
	acked := make(chan error, 1)
	go func() {
		_, err := c.prim.Submit("t", workload.ChurnGrant(c.writes, users, roles))
		acked <- err
	}()
	pd.awaitParked(t)
	if gen, ok, _ := c.prim.WaitGenerationCtx(context.Background(), "t", g+1, 50*time.Millisecond); ok || gen != g {
		t.Fatalf("primary: generation %d observable before its fsync (ok=%v)", gen, ok)
	}
	select {
	case err := <-acked:
		t.Fatalf("primary acknowledged (%v) before its fsync", err)
	default:
	}
	release()
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	if gen := generation(t, c.prim); gen != g+1 {
		t.Fatalf("primary at %d after the ack, want %d", gen, g+1)
	}
}

// (e) One fsync per applied pull, whatever it carried.
func TestReplicaOneFsyncPerAppliedPull(t *testing.T) {
	c := newCluster(t, nil)
	c.seed(t)
	c.write(t)
	before := c.d.syncCount()
	if _, err := c.fol.ApplyReplicated("t", c.pulled(t)); err != nil {
		t.Fatal(err)
	}
	if n := c.d.syncCount() - before; n != 1 {
		t.Fatalf("one-record pull cost %d fsyncs, want 1", n)
	}

	// Steps on both sides of a refused command: its no-effect audit rides the
	// same pull and the same fsync.
	c.write(t)
	denied := workload.ChurnGrant(c.writes, users, roles)
	denied.Actor = "cu0000"
	if res, _ := c.prim.Submit("t", denied); res.Outcome == command.Applied {
		t.Fatal("fixture: the member's grant was not refused")
	}
	g := c.write(t)
	recs := c.pulled(t)
	audits := 0
	for _, r := range recs {
		if r.IsAudit() {
			audits++
		}
	}
	if audits == 0 || len(recs)-audits != 2 {
		t.Fatalf("fixture: pulled %d records with %d audits, want 2 steps and the denial", len(recs), audits)
	}
	before = c.d.syncCount()
	if gen, err := c.fol.ApplyReplicated("t", recs); err != nil || gen != g {
		t.Fatalf("apply: generation %d, %v", gen, err)
	}
	if n := c.d.syncCount() - before; n != 1 {
		t.Fatalf("a pull of 2 steps and an audit cost %d fsyncs, want 1", n)
	}
	if trail, _, _, _ := c.fol.Audit("t", 0, 0); len(trail) != int(g)+1 {
		t.Fatalf("replica audit trail has %d entries, want %d applied and the denial", len(trail), g)
	}
}

// (b) A failed late fsync: out-of-sync, a bootstrap, never a step back, and a
// log that stays a gap-free prefix.
func TestReplicaLateFsyncFailureReinstalls(t *testing.T) {
	c := newCluster(t, nil)
	c.write(t)
	f := c.follow(t, c.fol)
	cursorAt(t, f, 1)

	stop, sampled := make(chan struct{}), make(chan error, 1)
	go func() {
		var last uint64
		for {
			select {
			case <-stop:
				sampled <- nil
				return
			default:
			}
			gen, _, err := c.fol.WaitGenerationCtx(context.Background(), "t", 0, 0)
			if err == nil && gen < last {
				sampled <- fmt.Errorf("replica served generation %d after %d", gen, last)
				return
			}
			last = max(last, gen)
		}
	}()

	rng := rand.New(rand.NewSource(20))
	failures := 0
	for i := 0; i < 24; i++ {
		if rng.Intn(3) == 0 {
			failures++
			c.d.failNextSync()
		}
		g := c.write(t)
		cursorAt(t, f, g)
	}
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	if failures == 0 {
		t.Fatal("fixture: the seed armed no failure")
	}
	st, _ := f.LagStats("t")
	if int(st.Bootstraps) != failures+1 {
		t.Fatalf("%d bootstraps for %d failed fsyncs (and the first sync), want %d", st.Bootstraps, failures, failures+1)
	}
	f.Close()

	st2, pol, _, err := storage.Open(filepath.Join(c.d.crashView(t, c.folDir), "t"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recs, gap, err := st2.ReadSince(st2.SnapBase())
	if err != nil || gap {
		t.Fatalf("reading the crash view's log: gap=%v, %v", gap, err)
	}
	next := st2.SnapBase() + 1
	for _, r := range recs {
		if r.IsAudit() {
			continue
		}
		if r.Seq != next {
			t.Fatalf("crash view's log jumps from %d to %d", next-1, r.Seq)
		}
		next++
	}
	if want := workload.ChurnPolicy(roles, users).NumEdges() + c.writes; st2.Seq() != c.writes || pol.NumEdges() != want {
		t.Fatalf("crash view recovers position %d with %d edges, want %d with %d", st2.Seq(), pol.NumEdges(), c.writes, want)
	}
}

// The contract underneath (b), without the loop: the failing apply reports
// out-of-sync, and so does every apply after it until an install.
func TestReplicaRefusesToExtendALogBehindItsEngine(t *testing.T) {
	c := newCluster(t, nil)
	c.seed(t)
	g := c.write(t)
	recs := c.pulled(t)
	c.d.failNextSync()
	if gen, err := c.fol.ApplyReplicated("t", recs); !tenant.IsOutOfSync(err) || gen != g {
		t.Fatalf("apply over a failing fsync: generation %d, %v; want %d published and out-of-sync", gen, err, g)
	}
	if seq, _, _ := c.fol.ReplicaPosition("t"); seq != g-1 {
		t.Fatalf("log position %d after the failed fsync, want %d", seq, g-1)
	}
	c.write(t)
	if _, err := c.fol.ApplyReplicated("t", c.pulled(t)); !tenant.IsOutOfSync(err) {
		t.Fatalf("apply on a log behind its engine: %v, want out-of-sync", err)
	}
	if c.fol.Evict("t") {
		t.Fatal("a tenant behind its engine was evicted: a reopen would serve below a served generation")
	}
	if res, err := c.fol.Submit("t", workload.ChurnGrant(c.writes, users, roles)); err == nil {
		t.Fatalf("local write accepted on a log with a hole under it: %v", res.Outcome)
	}
	c.seed(t)
	if gen := generation(t, c.fol); gen != uint64(c.writes) {
		t.Fatalf("after the install: generation %d, want %d", gen, c.writes)
	}
	c.write(t)
	if gen, err := c.fol.ApplyReplicated("t", c.pulled(t)); err != nil || gen != uint64(c.writes) {
		t.Fatalf("apply after the install: generation %d, %v", gen, err)
	}
}

// (c) A power loss between publish and fsync: the unsynced suffix is gone,
// the reopened replica resumes from its durable position, a token holder
// waits, and a re-pull converges.
func TestReplicaCrashBetweenPublishAndFsync(t *testing.T) {
	c := newCluster(t, nil)
	c.write(t)
	f := c.follow(t, c.fol)
	cursorAt(t, f, 1)

	release := c.d.hold()
	g := c.write(t)
	c.d.awaitParked(t)
	if gen := generation(t, c.fol); gen != g {
		t.Fatalf("replica at %d with its fsync parked, want %d published", gen, g)
	}
	view := c.d.crashView(t, c.folDir)
	release()
	cursorAt(t, f, g)

	re := tenant.New(tenant.Options{Dir: view, Mode: engine.Refined, Sync: true})
	defer re.Close()
	if gen, ok, err := re.WaitGenerationCtx(context.Background(), "t", g, 50*time.Millisecond); err != nil || ok || gen != g-1 {
		t.Fatalf("reopened crash view: generation %d ok=%v (%v); want %d and a token for %d left waiting", gen, ok, err, g-1, g)
	}
	f2 := c.follow(t, re)
	cursorAt(t, f2, g)
	if gen, ok, _ := re.WaitGenerationCtx(context.Background(), "t", g, 5*time.Second); !ok || gen != g {
		t.Fatalf("re-pull converged to %d, want the primary's head %d", gen, g)
	}
}

// (d) Promote right behind an apply: it waits for the pull loop, hence for
// the covering fsync, so the first write of the new epoch lands on logs whose
// durable watermark is their position.
func TestPromoteInheritsDurablePositions(t *testing.T) {
	c := newCluster(t, nil)
	c.write(t)
	f := replication.NewFollower(c.fol, replication.FollowerOptions{
		Upstream: c.url, PollWait: 200 * time.Millisecond, Backoff: 10 * time.Millisecond,
	})
	srv := server.NewWithConfig(server.Config{Registry: c.fol, Follower: f, Epoch: replication.NewEpoch(0, nil)})
	t.Cleanup(srv.Close)
	if err := f.Ensure("t"); err != nil {
		t.Fatal(err)
	}
	cursorAt(t, f, 1)

	release := c.d.hold()
	g := c.write(t)
	c.d.awaitParked(t)
	if c.d.unsynced(t) == 0 {
		t.Fatal("fixture: nothing unsynced while the apply's fsync is parked")
	}
	promoted := make(chan error, 1)
	go func() {
		_, err := srv.Promote(0)
		promoted <- err
	}()
	select {
	case err := <-promoted:
		t.Fatalf("Promote returned (%v) while an apply still owed its fsync", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-promoted; err != nil {
		t.Fatal(err)
	}
	if n := c.d.unsynced(t); n != 0 {
		t.Fatalf("promoted with %d bytes past the durable watermark", n)
	}
	if srv.Role() != "primary" {
		t.Fatalf("role %q after Promote", srv.Role())
	}
	if _, gen, err := c.fol.SubmitBatch("t", []command.Command{workload.ChurnGrant(c.writes, users, roles)}); err != nil || gen != g+1 {
		t.Fatalf("first write of the new epoch: generation %d, %v; want %d", gen, err, g+1)
	}
}
