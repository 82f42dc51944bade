package storage

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/policy"
	"adminrefine/internal/workload"
)

// writeScratch copies the compacted snapshot plus a damaged WAL into a fresh
// directory, simulating a crash that tore the log at byte `cut` (and, when
// flip >= 0, flipped a bit inside the surviving bytes).
func writeScratch(t *testing.T, snap, wal []byte, cut, flip int) string {
	t.Helper()
	dir := t.TempDir()
	damaged := append([]byte(nil), wal[:cut]...)
	if flip >= 0 && flip < len(damaged) {
		damaged[flip] ^= 0x40
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// recordEnds parses the WAL framing (len | crc | payload) and returns the
// byte offset at which each record ends, so the test can map an arbitrary
// cut point to the longest surviving record prefix.
func recordEnds(t *testing.T, wal []byte) []int {
	t.Helper()
	ends := []int{len(logMagic)}
	off := len(logMagic)
	for off+8 <= len(wal) {
		n := int(binary.LittleEndian.Uint32(wal[off:]))
		if off+8+n > len(wal) {
			break
		}
		off += 8 + n
		ends = append(ends, off)
	}
	return ends
}

// TestEngineRecoveryFromTornTail is the crash-safety contract of the engine
// path: a write killed mid-record (any byte cut, with or without a flipped
// bit in the tail) must recover, via OpenEngine, to exactly the last
// CRC-valid record prefix — same policy, same generation — with the engine
// serving decisions at the recovered generation.
func TestEngineRecoveryFromTornTail(t *testing.T) {
	const roles, users, ops = 16, 16, 24
	dir := t.TempDir()

	st, eng, _, err := OpenEngine(dir, engine.Refined, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := workload.ChurnPolicy(roles, users)
	if err := st.Compact(base); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Reopen over the compacted snapshot so the engine owns the fixture.
	st, eng, rec, err := OpenEngine(dir, engine.Refined, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.SnapshotLoaded {
		t.Fatal("fixture snapshot not loaded")
	}
	for i := 0; i < ops; i++ {
		res, err := eng.SubmitGuarded(workload.ChurnGrant(i, users, roles), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != command.Applied {
			t.Fatalf("churn grant %d: %v", i, res.Outcome)
		}
	}
	st.Close()

	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	// The engine-path commit writes two frames per applied command — the
	// step record and its audit twin — so every cut below additionally
	// exercises mixed step/audit tails: a tear between a step and its audit
	// must recover the step (and its policy effect) while dropping only the
	// audit observation.
	ends := recordEnds(t, wal)
	if len(ends) != 2*ops+1 {
		t.Fatalf("parsed %d records in the WAL, want %d", len(ends)-1, 2*ops)
	}

	// Expected policy after k applied records.
	prefixes := make([]*policy.Policy, ops+1)
	prefixes[0] = base.Clone()
	cur := base.Clone()
	for i := 0; i < ops; i++ {
		if _, err := command.Apply(cur, workload.ChurnGrant(i, users, roles)); err != nil {
			t.Fatal(err)
		}
		prefixes[i+1] = cur.Clone()
	}

	// prefixFor maps a surviving byte length to the number of whole *step*
	// records: frames alternate step, audit, step, audit, …, so k surviving
	// frames carry ceil(k/2) steps (a surviving step whose audit twin was
	// torn away still counts — the effect is durable, the observation not).
	prefixFor := func(cut int) int {
		k := 0
		for k+1 < len(ends) && ends[k+1] <= cut {
			k++
		}
		return (k + 1) / 2
	}

	check := func(cut, flip, wantK int, what string) {
		t.Helper()
		scratch := writeScratch(t, snap, wal, cut, flip)
		st2, eng2, rec2, err := OpenEngine(scratch, engine.Refined, Options{})
		if err != nil {
			t.Fatalf("%s (cut=%d flip=%d): recovery failed: %v", what, cut, flip, err)
		}
		defer st2.Close()
		if rec2.Records != wantK {
			t.Fatalf("%s (cut=%d flip=%d): replayed %d records, want %d", what, cut, flip, rec2.Records, wantK)
		}
		if got := eng2.Generation(); got != uint64(wantK) {
			t.Fatalf("%s (cut=%d): engine generation %d, want %d", what, cut, got, wantK)
		}
		if got := st2.Seq(); got != wantK {
			t.Fatalf("%s (cut=%d): store seq %d, want %d", what, cut, got, wantK)
		}
		s := eng2.Snapshot()
		defer s.Close()
		if !s.Policy().Equal(prefixes[wantK]) {
			t.Fatalf("%s (cut=%d): recovered policy is not the %d-record prefix", what, cut, wantK)
		}
		// The engine serves at the recovered generation: the next churn
		// command is still authorized, and a submit keeps counting from k.
		if _, ok := s.Authorize(workload.ChurnGrant(wantK, users, roles)); !ok {
			t.Fatalf("%s (cut=%d): recovered engine denies the churn query", what, cut)
		}
		res, err := eng2.SubmitGuarded(workload.ChurnGrant(wantK, users, roles), nil)
		if err != nil || res.Outcome != command.Applied {
			t.Fatalf("%s (cut=%d): submit on recovered engine: outcome %v err %v", what, cut, res.Outcome, err)
		}
		if got := eng2.Generation(); got != uint64(wantK)+1 {
			t.Fatalf("%s (cut=%d): generation after recovery submit %d, want %d", what, cut, got, wantK+1)
		}
	}

	// Every record boundary, and every byte offset within the first records.
	for _, cut := range ends {
		check(cut, -1, prefixFor(cut), "boundary cut")
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		cut := len(logMagic) + rng.Intn(len(wal)-len(logMagic)) + 1
		check(cut, -1, prefixFor(cut), "random cut")
	}
	// Bit flips inside the tail record: the CRC must reject the damaged
	// record, truncating recovery to the previous boundary — whether the
	// damaged frame is a step or an audit record.
	for trial := 0; trial < 20; trial++ {
		k := rng.Intn(2 * ops)
		flip := ends[k] + 8 + rng.Intn(ends[k+1]-ends[k]-8) // inside payload k
		check(len(wal), flip, (k+1)/2, "flipped payload byte")
	}
}
