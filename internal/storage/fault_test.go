package storage

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/fault"
	"adminrefine/internal/policy"
	"adminrefine/internal/workload"
)

// faulty adapts a fault.FS to the Options.OpenFile seam.
func faulty(fs *fault.FS) func(path string, flag int, perm os.FileMode) (File, error) {
	return func(path string, flag int, perm os.FileMode) (File, error) {
		return fs.Open(path, flag, perm)
	}
}

// TestEngineAckedStateSurvivesInjectedWriteFaults is the write-error half of
// the crash-safety contract (engine_property_test covers the read/recovery
// half): under a seeded schedule of write errors, torn writes and fsync
// failures, every acknowledged submit must be durable and every failed one
// rolled back — the engine's generation, the WAL and the recovered policy
// agree at all times. A store wedged by a failed repair (ErrDamaged) must
// refuse further appends rather than write after garbage, and a clean reopen
// must recover an acknowledged-prefix-or-better of the deterministic stream.
func TestEngineAckedStateSurvivesInjectedWriteFaults(t *testing.T) {
	const roles, users, ops = 16, 16, 80
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			base := workload.ChurnPolicy(roles, users)
			{
				st, _, _, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Compact(base); err != nil {
					t.Fatal(err)
				}
				st.Close()
			}

			// Expected policy after k acknowledged churn grants.
			prefixes := make([]*policy.Policy, ops+2)
			prefixes[0] = base.Clone()
			cur := base.Clone()
			for i := 0; i <= ops; i++ {
				if _, err := command.Apply(cur, workload.ChurnGrant(i, users, roles)); err != nil {
					t.Fatal(err)
				}
				prefixes[i+1] = cur.Clone()
			}

			// Sync: true puts both Write and Sync on the schedule — torn
			// writes, failed fsyncs after the bytes landed, and repairs whose
			// own fsync fails (the wedge path) all occur across the seeds.
			fs := fault.NewFS(fault.SeededPlan(seed, 10_000, 0.08, 0.08, 0.08))
			st, eng, rec, err := OpenEngine(dir, engine.Refined, Options{Sync: true, OpenFile: faulty(fs)})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.SnapshotLoaded {
				t.Fatal("fixture snapshot not loaded")
			}

			acked, wedged := 0, false
			for attempt := 0; acked < ops && attempt < 8*ops; attempt++ {
				res, err := eng.SubmitGuarded(workload.ChurnGrant(acked, users, roles), nil)
				if err != nil {
					var ce *engine.CommitError
					if !errors.As(err, &ce) {
						t.Fatalf("attempt %d: non-commit error: %v", attempt, err)
					}
					if !errors.Is(err, fault.ErrInjected) && !errors.Is(err, ErrDamaged) {
						t.Fatalf("attempt %d: commit failure not from the schedule: %v", attempt, err)
					}
					// The failed append rolled back: nothing acknowledged,
					// nothing visible.
					if got := eng.Generation(); got != uint64(acked) {
						t.Fatalf("attempt %d: failed append advanced the engine to %d, acked %d", attempt, got, acked)
					}
					if got := st.Seq(); got != acked {
						t.Fatalf("attempt %d: failed append advanced the store to %d, acked %d", attempt, got, acked)
					}
					if errors.Is(err, ErrDamaged) {
						wedged = true
						break
					}
					continue
				}
				if res.Outcome != command.Applied {
					t.Fatalf("attempt %d: outcome %v", attempt, res.Outcome)
				}
				acked++
				if got := eng.Generation(); got != uint64(acked) {
					t.Fatalf("ack %d: engine generation %d", acked, got)
				}
			}
			if fs.Step() == 0 {
				t.Fatal("schedule never consulted: the fault seam is not wired")
			}

			if wedged {
				// A wedged store fails fast on every later append and
				// compaction — it must not write after an unrepaired tail.
				if err := st.AppendRecord(Record{Seq: acked + 1}); !errors.Is(err, ErrDamaged) {
					t.Fatalf("append on wedged store: %v, want ErrDamaged", err)
				}
				if err := st.Compact(prefixes[acked]); !errors.Is(err, ErrDamaged) {
					t.Fatalf("compact on wedged store: %v, want ErrDamaged", err)
				}
			}
			st.Close()

			// Clean reopen: recovery must land on the deterministic churn
			// stream at >= acked. Equality can be off by one only when the
			// wedge left a fully-landed frame the repair could not truncate —
			// an unacknowledged write surviving is allowed, a lost
			// acknowledged one never.
			st2, eng2, rec2, err := OpenEngine(dir, engine.Refined, Options{})
			if err != nil {
				t.Fatalf("clean reopen after faults: %v", err)
			}
			defer st2.Close()
			got := int(eng2.Generation())
			if got < acked {
				t.Fatalf("recovered generation %d below acknowledged %d: acknowledged write lost", got, acked)
			}
			if got > acked+1 || (got == acked+1 && !wedged) {
				t.Fatalf("recovered generation %d, acknowledged %d (wedged=%v): phantom writes recovered", got, acked, wedged)
			}
			if rec2.Records != got {
				t.Fatalf("recovery replayed %d step records, generation %d", rec2.Records, got)
			}
			s := eng2.Snapshot()
			defer s.Close()
			if !s.Policy().Equal(prefixes[got]) {
				t.Fatalf("recovered policy is not the %d-grant churn prefix", got)
			}
			// The recovered engine still takes writes.
			res, err := eng2.SubmitGuarded(workload.ChurnGrant(got, users, roles), nil)
			if err != nil || res.Outcome != command.Applied {
				t.Fatalf("submit on recovered engine: outcome %v err %v", res.Outcome, err)
			}
		})
	}
}

// stepAndAudit builds the step record for the i-th churn grant plus its
// audit twin — the shape StageCommit + FlushStaged land, here driven through the bulk
// AppendRecords path.
func stepAndAudit(t *testing.T, seq int) []Record {
	t.Helper()
	res := command.StepResult{Cmd: workload.ChurnGrant(seq-1, 16, 16), Outcome: command.Applied}
	return []Record{NewStepRecord(seq, res), NewAuditRecord(seq, res, "")}
}

// TestAppendRecordsInjectedFaultsLeaveStoreConsistent pins the bulk append
// path's behaviour under each fault kind, armed one at a time at the exact
// next mutation index: a failed batch changes nothing (sequence, tail,
// audit index), the retry lands it, and a clean reopen sees every batch
// exactly once with a contiguous audit index — failed appends must not
// consume ASeq values or leave partial frames.
func TestAppendRecordsInjectedFaultsLeaveStoreConsistent(t *testing.T) {
	dir := t.TempDir()
	plan := fault.NewPlan()
	fs := fault.NewFS(plan)
	st, _, _, err := Open(dir, Options{Sync: true, OpenFile: faulty(fs)})
	if err != nil {
		t.Fatal(err)
	}

	batches := 0
	appendNext := func(wantErr bool) {
		t.Helper()
		err := st.AppendRecords(stepAndAudit(t, batches+1)...)
		if wantErr {
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("batch %d: err %v, want injected fault", batches+1, err)
			}
			seq, _ := st.Position()
			if seq != batches {
				t.Fatalf("failed batch moved the sequence to %d, want %d", seq, batches)
			}
			if _, total := st.Audit(0, 100); total != uint64(batches) {
				t.Fatalf("failed batch moved the audit index to %d, want %d", total, batches)
			}
			return
		}
		if err != nil {
			t.Fatalf("batch %d: %v", batches+1, err)
		}
		batches++
		if seq, _ := st.Position(); seq != batches {
			t.Fatalf("batch %d acknowledged at sequence %d", batches, seq)
		}
	}

	appendNext(false) // clean baseline

	// A write error: no byte lands.
	plan.At(fs.Step(), fault.Fault{Kind: fault.ErrWrite})
	appendNext(true)
	appendNext(false)

	// A torn write: a frame prefix lands and must be truncated away.
	plan.At(fs.Step(), fault.Fault{Kind: fault.TornWrite, Keep: 9})
	appendNext(true)
	appendNext(false)

	// A failed fsync after the full buffer landed: durability unknown, the
	// repair must remove the bytes so acknowledged and durable agree.
	plan.At(fs.Step()+1, fault.Fault{Kind: fault.ErrSync})
	appendNext(true)
	appendNext(false)

	st.Close()

	st2, pol, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after injected faults: %v", err)
	}
	defer st2.Close()
	if rec.Records != batches {
		t.Fatalf("recovery replayed %d step records, want %d", rec.Records, batches)
	}
	if st2.Seq() != batches {
		t.Fatalf("recovered sequence %d, want %d", st2.Seq(), batches)
	}
	records, total := st2.Audit(0, 100)
	if total != uint64(batches) || len(records) != batches {
		t.Fatalf("recovered %d/%d audit records, want %d", len(records), total, batches)
	}
	for i, r := range records {
		if r.ASeq != uint64(i+1) {
			t.Fatalf("audit record %d has index %d: failed appends consumed ASeq values", i, r.ASeq)
		}
	}
	// The recovered policy is the full churn prefix: no batch lost, none
	// duplicated.
	want := policy.New()
	for i := 0; i < batches; i++ {
		if _, err := command.Apply(want, workload.ChurnGrant(i, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if !pol.Equal(want) {
		t.Fatalf("recovered policy diverged from the %d-batch churn prefix", batches)
	}
}

// TestInjectedStorageLatencyStallsAppends pins the seeded latency seam the
// overload scenarios replay: a SlowWrite or SlowSync armed on the mutation
// schedule stalls the covering append for its delay but loses nothing — the
// batch acknowledges, the sequence advances, and a clean reopen replays it.
// This is what turns "the disk got slow" into a deterministic test input.
func TestInjectedStorageLatencyStallsAppends(t *testing.T) {
	dir := t.TempDir()
	plan := fault.NewPlan()
	fs := fault.NewFS(plan)
	st, _, _, err := Open(dir, Options{Sync: true, OpenFile: faulty(fs)})
	if err != nil {
		t.Fatal(err)
	}

	const stall = 40 * time.Millisecond
	appendTimed := func(wantStall bool) {
		t.Helper()
		start := time.Now()
		if err := st.AppendRecords(stepAndAudit(t, st.Seq()+1)...); err != nil {
			t.Fatalf("append under latency fault: %v", err)
		}
		if d := time.Since(start); wantStall && d < stall {
			t.Fatalf("append took %v, want >= %v stall", d, stall)
		}
	}

	appendTimed(false) // clean baseline

	// A slow write: the frame stalls on its way to the page cache.
	plan.At(fs.Step(), fault.Fault{Kind: fault.SlowWrite, Delay: stall})
	appendTimed(true)

	// A slow fsync: the bytes landed fast, durability is what stalls — the
	// group-commit overload case.
	plan.At(fs.Step()+1, fault.Fault{Kind: fault.SlowSync, Delay: stall})
	appendTimed(true)

	want := st.Seq()
	st.Close()

	st2, _, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after latency faults: %v", err)
	}
	defer st2.Close()
	if st2.Seq() != want || rec.Records != want {
		t.Fatalf("recovered seq %d (replayed %d), want %d: latency faults must lose nothing", st2.Seq(), rec.Records, want)
	}
}
