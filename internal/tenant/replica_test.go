package tenant

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
	"adminrefine/internal/workload"
)

// primaryWithWrites stands up a registry with one churn tenant and n applied
// writes, returning the registry.
func primaryWithWrites(t *testing.T, dir string, n int) *Registry {
	t.Helper()
	reg := New(Options{Dir: dir, Mode: engine.Refined})
	if err := reg.InstallPolicy("t", workload.ChurnPolicy(16, 16)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		res, err := reg.Submit("t", workload.ChurnGrant(i, 16, 16))
		if err != nil || res.Outcome != command.Applied {
			t.Fatalf("churn submit %d: outcome=%v err=%v", i, res.Outcome, err)
		}
	}
	return reg
}

func TestPullWALAndApplyReplicated(t *testing.T) {
	prim := primaryWithWrites(t, t.TempDir(), 10)
	defer prim.Close()

	res, err := prim.PullWAL(context.Background(), "t", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotNeeded {
		t.Fatal("uncompacted log should serve from seq 0")
	}
	if len(res.Records) != 10 || res.Head != 10 {
		t.Fatalf("pull got %d records head %d, want 10/10", len(res.Records), res.Head)
	}

	// A follower registry bootstraps from the snapshot dump and applies the
	// pulled records through the engine.
	seq, seqEpoch, polJSON, _, err := prim.SnapshotDump("t")
	if err != nil {
		t.Fatal(err)
	}
	fol := New(Options{Dir: t.TempDir(), Mode: engine.Refined})
	defer fol.Close()
	// Snapshot carries the whole state: installing at seq makes the pulled
	// suffix after seq a no-op overlap.
	if err := fol.InstallReplicaSnapshot("t", wirePolicy(t, polJSON), seq, seqEpoch, nil); err != nil {
		t.Fatal(err)
	}
	gen, err := fol.ApplyReplicated("t", res.Records)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 10 {
		t.Fatalf("follower generation %d, want 10", gen)
	}

	// Decisions agree between primary and follower.
	probes := []command.Command{
		workload.ChurnGrant(11, 16, 16),
		command.Grant("nobody", model.User("u0001"), model.Role("c0002")),
	}
	for i, c := range probes {
		pr, err1 := prim.Authorize("t", c)
		fr, err2 := fol.Authorize("t", c)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if pr.OK != fr.OK {
			t.Fatalf("probe %d: primary %v follower %v", i, pr.OK, fr.OK)
		}
	}
}

func TestApplyReplicatedFromInitialPolicy(t *testing.T) {
	prim := primaryWithWrites(t, t.TempDir(), 6)
	defer prim.Close()

	// Install the *initial* policy at seq 0 — the churn fixture — and replay
	// the whole log to reach the primary's state: the pure log-shipping path
	// with no snapshot shortcut.
	fol := New(Options{Dir: t.TempDir(), Mode: engine.Refined})
	defer fol.Close()
	initJSON, err := json.Marshal(workload.ChurnPolicy(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.InstallReplicaSnapshot("t", wirePolicy(t, initJSON), 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	all, err := prim.PullWAL(context.Background(), "t", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.ApplyReplicated("t", all.Records); err != nil {
		t.Fatal(err)
	}
	st, err := fol.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 6 {
		t.Fatalf("follower generation %d, want 6", st.Generation)
	}
	if _, err := fol.ApplyReplicated("t", all.Records); err != nil {
		t.Fatalf("re-applying an overlapping batch must be a no-op, got %v", err)
	}
	pst, err := prim.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	if pst.Policy != st.Policy {
		t.Fatalf("policy stats diverged: primary %+v follower %+v", pst.Policy, st.Policy)
	}
}

func TestApplyReplicatedGapIsOutOfSync(t *testing.T) {
	prim := primaryWithWrites(t, t.TempDir(), 5)
	defer prim.Close()
	res, err := prim.PullWAL(context.Background(), "t", 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fol := New(Options{Dir: t.TempDir(), Mode: engine.Refined})
	defer fol.Close()
	initJSON, err := json.Marshal(workload.ChurnPolicy(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.InstallReplicaSnapshot("t", wirePolicy(t, initJSON), 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Records 3..5 cannot extend generation 0: seq gap.
	if _, err := fol.ApplyReplicated("t", res.Records); !IsOutOfSync(err) {
		t.Fatalf("gap apply err = %v, want out-of-sync", err)
	}
}

func TestInstallReplicaSnapshotRefusesRewind(t *testing.T) {
	prim := primaryWithWrites(t, t.TempDir(), 4)
	defer prim.Close()
	seq, seqEpoch, polJSON, _, err := prim.SnapshotDump("t")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("dump seq %d, want 4", seq)
	}
	fol := New(Options{Dir: t.TempDir(), Mode: engine.Refined})
	defer fol.Close()
	if err := fol.InstallReplicaSnapshot("t", wirePolicy(t, polJSON), seq, seqEpoch, nil); err != nil {
		t.Fatal(err)
	}
	if err := fol.InstallReplicaSnapshot("t", wirePolicy(t, polJSON), seq-1, seqEpoch, nil); err == nil {
		t.Fatal("installing a snapshot behind the local generation must fail")
	}
}

func TestPullWALAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := New(Options{Dir: dir, Mode: engine.Refined, CompactEvery: 4})
	defer reg.Close()
	if err := reg.InstallPolicy("t", workload.ChurnPolicy(16, 16)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := reg.Submit("t", workload.ChurnGrant(i, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	// The compaction budget (4) fired and truncated the log file, but the
	// in-memory tail still covers seq 0: a slightly-behind follower replays
	// incrementally instead of paying a snapshot bootstrap per compaction.
	res, err := reg.PullWAL(context.Background(), "t", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotNeeded || len(res.Records) != 9 {
		t.Fatalf("pull across compaction: snapshotNeeded=%v records=%d, want 9 from the tail",
			res.SnapshotNeeded, len(res.Records))
	}
	// Pulling from the head still works.
	st, err := reg.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	res, err = reg.PullWAL(context.Background(), "t", st.Generation, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotNeeded || len(res.Records) != 0 {
		t.Fatalf("head pull: %+v", res)
	}
	// A restart drops the tail (the file was truncated), so the same pull
	// from 0 now genuinely needs a snapshot — the gap path.
	if !reg.Evict("t") {
		t.Fatal("evict failed")
	}
	res, err = reg.PullWAL(context.Background(), "t", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotNeeded {
		t.Fatalf("pull from 0 after reopen: want SnapshotNeeded, got %d records", len(res.Records))
	}
}

// TestWaitGenerationSurvivesEngineSwap pins the bootstrap/wait race: a
// reader blocked on a generation token must wake when a replica snapshot
// bootstrap replaces the tenant's engine (the retired engine never publishes
// again), resuming against the successor instead of sleeping out its
// timeout.
func TestWaitGenerationSurvivesEngineSwap(t *testing.T) {
	prim := primaryWithWrites(t, t.TempDir(), 4)
	defer prim.Close()
	seq, seqEpoch, polJSON, _, err := prim.SnapshotDump("t")
	if err != nil {
		t.Fatal(err)
	}

	fol := New(Options{Dir: t.TempDir(), Mode: engine.Refined})
	defer fol.Close()
	initJSON, err := json.Marshal(workload.ChurnPolicy(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.InstallReplicaSnapshot("t", wirePolicy(t, initJSON), 0, 0, nil); err != nil {
		t.Fatal(err)
	}

	type result struct {
		gen uint64
		ok  bool
		err error
	}
	done := make(chan result, 1)
	go func() {
		gen, ok, err := fol.WaitGenerationCtx(context.Background(), "t", seq, 10*time.Second)
		done <- result{gen, ok, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter block on the old engine
	if err := fol.InstallReplicaSnapshot("t", wirePolicy(t, polJSON), seq, seqEpoch, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.err != nil || !res.ok || res.gen < seq {
			t.Fatalf("wait across engine swap: %+v (want generation >= %d)", res, seq)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("waiter stranded on the retired engine")
	}
}

func TestPullWALLongPollWakesOnWrite(t *testing.T) {
	prim := primaryWithWrites(t, t.TempDir(), 1)
	defer prim.Close()
	done := make(chan PullResult, 1)
	go func() {
		res, err := prim.PullWAL(context.Background(), "t", 1, 0, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := prim.Submit("t", workload.ChurnGrant(1, 16, 16)); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if len(res.Records) != 1 || res.Records[0].Seq != 2 {
			t.Fatalf("long-poll woke with %+v", res)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long-poll did not wake on write")
	}
}

// wirePolicy decodes a snapshot document's policy member the way the
// replication client does: into policy.Wire, then built and validated.
func wirePolicy(t *testing.T, data []byte) *policy.Policy {
	t.Helper()
	var w policy.Wire
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	p, err := w.Policy()
	if err != nil {
		t.Fatal(err)
	}
	return p
}
