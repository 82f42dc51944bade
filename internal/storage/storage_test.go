package storage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/monitor"
	"adminrefine/internal/policy"
)

// attach logs every entry of the monitor's audit stream to s.
func attach(t *testing.T, s *Store, m *monitor.Monitor) {
	m.Observe(func(e monitor.AuditEntry) {
		if err := s.AppendStep(e.Seq, command.StepResult{Cmd: e.Cmd, Outcome: e.Outcome}); err != nil {
			t.Errorf("append: %v", err)
		}
	})
}

// runScenario drives a monitor attached to a store in dir and returns the
// final in-memory policy.
func runScenario(t *testing.T, dir string, mode monitor.Mode) *policy.Policy {
	t.Helper()
	s, pol, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Fresh store: seed with Figure 2.
	if pol.NumEdges() == 0 {
		pol = policy.Figure2()
	}
	m := monitor.New(pol, mode)
	attach(t, s, m)
	m.SubmitQueue(command.Queue{
		command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff)),
		command.Grant(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)),
		command.Grant(policy.UserDiana, model.User(policy.UserDiana), model.Role(policy.RoleSO)), // denied
		command.Revoke(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)),
	})
	return m.Policy()
}

func TestReplayReproducesState(t *testing.T) {
	dir := t.TempDir()

	// First run: seed + commands, but the snapshot was never written, so
	// recovery must replay from an empty policy... seed the snapshot first.
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(policy.Figure2()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	want := runScenario(t, dir, monitor.ModeStrict)

	// Recovery: snapshot + log replay must reproduce the exact policy.
	s2, got, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !rec.SnapshotLoaded {
		t.Error("snapshot not loaded")
	}
	if rec.Records != 4 {
		t.Errorf("replayed %d records, want 4", rec.Records)
	}
	if rec.Applied != 3 {
		t.Errorf("applied %d records, want 3", rec.Applied)
	}
	if !got.Equal(want) {
		removed, added := want.Diff(got)
		t.Fatalf("recovered policy differs: missing %v extra %v", removed, added)
	}
}

func TestCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(policy.Figure2()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	want := runScenario(t, dir, monitor.ModeStrict)

	// Compact with the live policy, then recover: log should be empty.
	s2, got, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Compact(got); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3, got3, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rec3.Records != 0 {
		t.Errorf("post-compaction replay saw %d records", rec3.Records)
	}
	if !got3.Equal(want) {
		t.Fatal("post-compaction recovery differs")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(policy.Figure2()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	runScenario(t, dir, monitor.ModeStrict)

	// Simulate a crash mid-append: chop bytes off the log tail.
	logPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, got, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	defer s2.Close()
	if rec.DroppedBytes == 0 {
		t.Error("no bytes reported dropped")
	}
	if rec.Records != 3 {
		t.Errorf("replayed %d records, want 3 (last record torn)", rec.Records)
	}
	// The state reflects the first three commands only.
	if !got.HasEdge(model.User(policy.UserJoe), model.Role(policy.RoleNurse)) {
		t.Error("torn-tail recovery lost the applied grant")
	}
	// Appending after recovery works and the log stays valid.
	m := monitor.New(got, monitor.ModeStrict)
	attach(t, s2, m)
	m.Submit(command.Revoke(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)))
	s2.Close()
	if _, _, rec3, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	} else if rec3.DroppedBytes != 0 {
		t.Error("log corrupt after post-recovery append")
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(policy.Figure2()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	runScenario(t, dir, monitor.ModeStrict)

	// Flip a byte inside the last record's payload: CRC must catch it.
	logPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.DroppedBytes == 0 {
		t.Fatal("corrupt record not dropped")
	}
	if rec.Records != 3 {
		t.Errorf("replayed %d records, want 3", rec.Records)
	}
}

func TestMissingHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("header-less log accepted")
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	for _, name := range []string{snapshotFile, legacySnapshotFile} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Open(dir, Options{}); err == nil {
			t.Fatalf("corrupt %s accepted", name)
		}
	}
}

// twoPassMeta is the oldest snapshot.json writer, kept as the reference for
// the legacy reader: the policy travels as raw bytes, marshalled on its own.
type twoPassMeta struct {
	Seq       int             `json:"seq"`
	SeqEpoch  uint64          `json:"seq_epoch,omitempty"`
	Epoch     uint64          `json:"epoch,omitempty"`
	Placement json.RawMessage `json:"placement,omitempty"`
	Policy    json.RawMessage `json:"policy"`
}

func TestSnapshotCompatibleWithTwoPassCodec(t *testing.T) {
	for name, p := range snapshotFixtures(t) {
		t.Run(name, func(t *testing.T) {
			// Old writer, new reader.
			polData, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			old, err := json.Marshal(twoPassMeta{Seq: 7, SeqEpoch: 2, Epoch: 3, Placement: json.RawMessage(`{"v":1}`), Policy: polData})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, legacySnapshotFile), old, 0o644); err != nil {
				t.Fatal(err)
			}
			s, got, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if !got.Equal(p) || !rec.SnapshotLoaded || s.Seq() != 7 || s.Epoch() != 3 || string(s.Placement()) != `{"v":1}` {
				t.Fatalf("old snapshot opened as seq %d epoch %d placement %s, policy equal=%v", s.Seq(), s.Epoch(), s.Placement(), got.Equal(p))
			}
			// The next compaction upgrades the directory: snapshot.bin written,
			// snapshot.json gone, nothing of the header or the policy lost.
			if err := s.Compact(got); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if _, err := os.Stat(filepath.Join(dir, legacySnapshotFile)); !os.IsNotExist(err) {
				t.Fatalf("snapshot.json survived the compaction (stat err %v)", err)
			}
			s2, back, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if !back.Equal(p) || !rec.SnapshotLoaded || s2.Seq() != 7 || s2.Epoch() != 3 || string(s2.Placement()) != `{"v":1}` {
				t.Fatalf("upgraded snapshot opened as seq %d epoch %d placement %s, policy equal=%v", s2.Seq(), s2.Epoch(), s2.Placement(), back.Equal(p))
			}
			if e, ok := s2.EpochAt(7); !ok || e != 2 {
				t.Fatalf("seq epoch after the upgrade = %d, %v; want 2", e, ok)
			}
		})
	}
}

func TestCorruptSnapshotPolicyRejected(t *testing.T) {
	for name, snap := range map[string]string{
		"wrong type":        `{"seq":3,"policy":{"users":["u"],"roles":"r"}}`,
		"not an object":     `{"seq":3,"policy":["u"]}`,
		"ungrammatical":     `{"seq":3,"policy":{"users":["u"],"roles":["r"],"ua":[{"from":"u","to":"r"}],"pa":[{"from":"r","priv":{"admin":{"op":"grant","srcKind":"user","src":"u","dstPriv":{"perm":{"action":"a","object":"o"}}}}}]}}`,
		"missing privilege": `{"seq":3,"policy":{"roles":["r"],"pa":[{"from":"r"}]}}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, legacySnapshotFile), []byte(snap), 0o644); err != nil {
				t.Fatal(err)
			}
			wantCorrupt(t, dir, name)
		})
	}
	// The same for snapshot.bin: frames whose length and checksum hold around
	// a policy that does not.
	frame := snapshotMagic + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x03\x00\x00\x00"
	for name, pol := range map[string]string{
		"binary role to user edge": "\x02\x01\x03r:r\x03u:u\x01\x01\x00",
		"binary ungrammatical":     "\x02\x01\x03r:r\x0e+(u:u,p:(a,o))\x01\x01\x00",
		"binary repeated edge":     "\x02\x02\x03u:u\x03r:r\x02\x01\x01\x00",
		"binary short edge list":   "\x02\x01\x03u:u\x03r:r\x00\x00",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), reseal([]byte(frame+pol)), 0o644); err != nil {
				t.Fatal(err)
			}
			wantCorrupt(t, dir, name)
		})
	}
	// The well-formed twin of the cases above opens.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), reseal([]byte(frame+"\x02\x01\x03u:u\x03r:r\x01\x01\x00")), 0o644); err != nil {
		t.Fatal(err)
	}
	s, pol, _, err := Open(dir, Options{})
	if err != nil || s.Seq() != 3 || !pol.HasEdge(model.User("u"), model.Role("r")) {
		t.Fatalf("well-formed frame: err %v", err)
	}
	s.Close()
}

func TestRefinedModeReplay(t *testing.T) {
	// Refined-mode decisions (Jane's ordering-authorized command) replay
	// identically: the log stores effects, not authorization mode.
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(policy.Figure2()); err != nil {
		t.Fatal(err)
	}
	pol := policy.Figure2()
	m := monitor.New(pol, monitor.ModeRefined)
	attach(t, s, m)
	res := m.Submit(command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleDBUsr2)))
	if res.Outcome != command.Applied {
		t.Fatalf("refined submit outcome: %v", res.Outcome)
	}
	want := m.Policy()
	s.Close()

	_, got, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 1 || rec.Applied != 1 {
		t.Errorf("recovery = %+v", rec)
	}
	if !got.Equal(want) {
		t.Fatal("refined-mode state not reproduced")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	res := command.StepResult{Cmd: command.Grant("u", model.User("a"), model.Role("b")), Outcome: command.Applied}
	if err := s.AppendStep(1, res); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := s.Compact(policy.New()); err == nil {
		t.Fatal("compact after close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close errored: %v", err)
	}
}

func TestSeqTracking(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Seq() != 0 {
		t.Fatal("fresh store has nonzero seq")
	}
	pol := policy.Figure2()
	m := monitor.New(pol, monitor.ModeStrict)
	attach(t, s, m)
	m.Submit(command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff)))
	m.Submit(command.Grant(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)))
	if s.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", s.Seq())
	}
}

func TestSnapshotSkipsOldRecords(t *testing.T) {
	// Records already covered by the snapshot's seq must not be re-applied.
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.Figure2()
	m := monitor.New(pol, monitor.ModeStrict)
	attach(t, s, m)
	m.Submit(command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff)))
	// Snapshot covers seq 1, but the log still contains record 1 (Compact
	// truncates, so emulate a snapshot-without-truncate by writing the
	// snapshot file directly through a second store call sequence).
	if err := s.Compact(m.Policy()); err != nil {
		t.Fatal(err)
	}
	// New command after compaction.
	m.Submit(command.Grant(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)))
	want := m.Policy()
	s.Close()

	_, got, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 1 {
		t.Errorf("replayed %d records, want 1", rec.Records)
	}
	if !got.Equal(want) {
		t.Fatal("state mismatch")
	}
}

func TestPlacementRecordSurvivesRestartAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Placement(); got != nil {
		t.Fatalf("fresh store placement = %q, want nil", got)
	}
	if err := s.SetPlacement([]byte(`{"version":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPlacement([]byte(`{"version":2}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Restart: the last placement record in file order wins, and the control
	// records neither replay into the policy nor count as recovered steps.
	s2, _, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 {
		t.Errorf("control records counted as steps: %d", rec.Records)
	}
	if got := string(s2.Placement()); got != `{"version":2}` {
		t.Fatalf("recovered placement = %q", got)
	}
	if s2.SinceCompact() != 0 {
		t.Errorf("control records primed the compaction trigger: %d", s2.SinceCompact())
	}

	// Compaction folds the placement into the snapshot meta: it must survive
	// a compaction that truncates every control record plus a restart.
	if err := s2.Compact(policy.Figure2()); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := string(s3.Placement()); got != `{"version":2}` {
		t.Fatalf("placement after compaction+restart = %q", got)
	}
}
