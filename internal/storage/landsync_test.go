package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/fault"
	"adminrefine/internal/workload"
)

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// The replica's order at the engine boundary: SubmitReplicated lands and
// publishes with one write and no fsync, the store counts nothing it has not
// synced, and one Sync covers every batch landed before it.
func TestLandThenSyncCountsOnlySyncedRecords(t *testing.T) {
	dir := t.TempDir()
	seedChurn(t, dir)
	fs := fault.NewFS(nil)
	st, eng, _, err := OpenEngine(dir, engine.Refined, Options{Sync: true, OpenFile: faulty(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	empty := walSize(t, dir)

	before := fs.Step()
	for i := 0; i < 2; i++ {
		if _, err := eng.SubmitReplicated([]command.Command{workload.ChurnGrant(i, 8, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Step() - before; got != 2 {
		t.Fatalf("two landed batches consumed %d mutations, want 2 writes and no fsync", got)
	}
	if eng.Generation() != 2 || st.Seq() != 0 || st.SinceCompact() != 0 || walSize(t, dir) == empty {
		t.Fatalf("landed, unsynced: generation %d, seq %d, since-compact %d, log %d bytes; want 2 published, nothing counted, bytes in the log",
			eng.Generation(), st.Seq(), st.SinceCompact(), walSize(t, dir))
	}
	if recs, _, _ := st.ReadSince(0); len(recs) != 0 {
		t.Fatalf("served %d records that are not durable here", len(recs))
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Step() - before; got != 3 {
		t.Fatalf("%d mutations after the sync, want 3 (one fsync for both batches)", got)
	}
	audit, _ := st.Audit(0, 0)
	if st.Seq() != 2 || len(audit) != 2 || audit[0].ASeq != 1 || audit[1].ASeq != 2 {
		t.Fatalf("after the sync: seq %d, audit %+v; want 2 and indexes 1, 2", st.Seq(), audit)
	}
	if err := st.Sync(); err != nil || fs.Step()-before != 3 {
		t.Fatalf("a sync with nothing landed: %v, %d mutations", err, fs.Step()-before)
	}
}

// A failed late fsync takes the log back to the durable watermark and counts
// nothing; the published engine state stays, ahead of the log, and the store
// itself keeps working for whoever reinstalls it.
func TestFailedLateSyncRewindsToTheDurableWatermark(t *testing.T) {
	dir := t.TempDir()
	seedChurn(t, dir)
	fs := fault.NewFS(fault.NewPlan().At(3, fault.Fault{Kind: fault.ErrSync}))
	st, eng, _, err := OpenEngine(dir, engine.Refined, Options{Sync: true, OpenFile: faulty(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	step := func(i int) {
		t.Helper()
		if _, err := eng.SubmitReplicated([]command.Command{workload.ChurnGrant(i, 8, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	step(0)                           // mutation 0
	if err := st.Sync(); err != nil { // 1
		t.Fatal(err)
	}
	durable := walSize(t, dir)
	step(1)                                                   // 2
	if err := st.Sync(); !errors.Is(err, fault.ErrInjected) { // 3
		t.Fatalf("sync: %v, want the injected failure", err)
	}
	audit, total := st.Audit(0, 0)
	if eng.Generation() != 2 || st.Seq() != 1 || walSize(t, dir) != durable || len(audit) != 1 || total != 1 {
		t.Fatalf("after the failed fsync: generation %d, seq %d, log %d bytes (durable %d), %d audit records; want 2, 1, the durable size, 1",
			eng.Generation(), st.Seq(), walSize(t, dir), durable, len(audit))
	}
	if err := st.AppendAudit(1, command.StepResult{Cmd: workload.ChurnGrant(9, 8, 8), Outcome: command.Denied}, "still writable"); err != nil {
		t.Fatal(err)
	}
	if audit, _ = st.Audit(0, 0); len(audit) != 2 || audit[1].ASeq != 2 {
		t.Fatalf("audit indexes after the rewind: %+v, want the dropped record's index reused", audit)
	}
	st2, pol, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	lost := workload.ChurnGrant(1, 8, 8)
	if st2.Seq() != 1 || rec.DroppedBytes != 0 || pol.HasEdge(lost.From, lost.To) {
		t.Fatalf("reopen: seq %d, %d torn bytes, lost edge present %v; want a clean log ending at 1", st2.Seq(), rec.DroppedBytes, pol.HasEdge(lost.From, lost.To))
	}
}
