package storage

import (
	"os"
	"path/filepath"
	"testing"

	"adminrefine/internal/monitor"
	"adminrefine/internal/policy"
	"adminrefine/internal/workload"
)

// TestRecoveryAtEveryTruncationPoint cuts the log at every possible byte
// offset and requires that recovery (a) never errors, (b) replays a prefix
// of the original record sequence, and (c) yields exactly the policy
// obtained by replaying that prefix in memory. This is the WAL's core
// crash-safety contract.
func TestRecoveryAtEveryTruncationPoint(t *testing.T) {
	dir := t.TempDir()
	base := workload.Hospital(2)
	queue := workload.Queue(base, 12, 21)

	st, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(base); err != nil {
		t.Fatal(err)
	}
	m := monitor.New(base.Clone(), monitor.ModeStrict)
	attach(t, st, m)
	m.SubmitQueue(queue)
	st.Close()

	logPath := filepath.Join(dir, "wal.log")
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// Expected prefix states: replay i commands in memory.
	prefixes := make([]*policy.Policy, len(queue)+1)
	prefixes[0] = base.Clone()
	cur := base.Clone()
	mm := monitor.New(cur, monitor.ModeStrict)
	for i, c := range queue {
		mm.Submit(c)
		prefixes[i+1] = mm.Policy()
	}

	step := len(full) / 60
	if step == 0 {
		step = 1
	}
	for cut := len(logMagic); cut <= len(full); cut += step {
		scratch := t.TempDir()
		if err := os.WriteFile(filepath.Join(scratch, "wal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(scratch, snapshotFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, got, rec, err := Open(scratch, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		st2.Close()
		if rec.Records > len(queue) {
			t.Fatalf("cut %d: replayed %d records, more than written", cut, rec.Records)
		}
		if !got.Equal(prefixes[rec.Records]) {
			t.Fatalf("cut %d: state does not match %d-command prefix", cut, rec.Records)
		}
	}
}
