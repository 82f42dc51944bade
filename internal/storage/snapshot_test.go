package storage

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adminrefine/internal/model"
	"adminrefine/internal/policy"
	"adminrefine/internal/workload"
)

// snapshotFixtures are the policies the snapshot tests run over: the paper's
// figure, a churn tenant, every vertex shape with every escaped character and
// one name used as both user and role, and the empty policy.
func snapshotFixtures(t testing.TB) map[string]*policy.Policy {
	t.Helper()
	tricky := policy.New()
	tricky.Assign("a,b", "x:y")
	tricky.Assign("x:y", "x:y")
	tricky.AddInherit("x:y", "(p)<&>")
	tricky.DeclareUser("idle")
	nested := model.Grant(model.Role("x:y"), model.Revoke(model.User("a,b"), model.Role("%")))
	for _, pr := range []model.Privilege{model.Perm("read", "t,1"), nested, model.Revoke(model.Role("(p)<&>"), nested)} {
		if _, err := tricky.GrantPrivilege("(p)<&>", pr); err != nil {
			t.Fatal(err)
		}
	}
	tricky.RevokePrivilege("(p)<&>", nested) // an orphan privilege vertex
	return map[string]*policy.Policy{"figure2": policy.Figure2(), "churn": workload.ChurnPolicy(8, 8), "tricky": tricky, "empty": policy.New()}
}

// reseal recomputes the frame's length and checksum over a doctored body.
func reseal(data []byte) []byte {
	body := data[len(snapshotMagic)+8:]
	binary.LittleEndian.PutUint32(data[len(snapshotMagic):], uint32(len(body)))
	binary.LittleEndian.PutUint32(data[len(snapshotMagic)+4:], crc32.ChecksumIEEE(body))
	return data
}

// wantCorrupt opens dir and requires the corrupt-snapshot failure: the error
// names it, and neither a store nor a partial policy comes back.
func wantCorrupt(t *testing.T, dir, what string) {
	t.Helper()
	s, pol, _, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "storage: corrupt snapshot") {
		t.Fatalf("%s: err = %v, want a corrupt-snapshot error", what, err)
	}
	if s != nil || pol != nil {
		t.Fatalf("%s: corrupt snapshot still returned a store (%v) or a partial policy (%v)", what, s, pol)
	}
}

// TestSnapshotRoundTrip is the round-trip property of the binary snapshot:
// what Compact wrote, Open loads as an equal policy whose every key has the
// vertex id it had, at the same sequence, epochs and placement.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, p := range snapshotFixtures(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetEpoch(5); err != nil {
				t.Fatal(err)
			}
			if err := s.SetPlacement([]byte(`{"v":9}`)); err != nil {
				t.Fatal(err)
			}
			if err := s.CompactAt(p, 41, 4, false); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if _, err := os.Stat(filepath.Join(dir, legacySnapshotFile)); !os.IsNotExist(err) {
				t.Fatalf("a compaction wrote snapshot.json (stat err %v)", err)
			}
			s, got, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			seqEpoch, ok := s.EpochAt(41)
			if !rec.SnapshotLoaded || s.Seq() != 41 || s.SnapBase() != 41 || !ok || seqEpoch != 4 || s.Epoch() != 5 || string(s.Placement()) != `{"v":9}` {
				t.Fatalf("reopened at seq %d base %d seq-epoch %d (%v) epoch %d placement %s", s.Seq(), s.SnapBase(), seqEpoch, ok, s.Epoch(), s.Placement())
			}
			if !got.Equal(p) || !p.Equal(got) {
				t.Fatal("reopened policy differs")
			}
			pg, gg := p.Graph(), got.Graph()
			if gg.NumVertices() != pg.NumVertices() {
				t.Fatalf("%d vertices reopened, %d written", gg.NumVertices(), pg.NumVertices())
			}
			for id := 0; id < pg.NumVertices(); id++ {
				v, _ := got.Vertex(pg.Key(id))
				if gg.Key(id) != pg.Key(id) || v == nil || v.Key() != pg.Key(id) {
					t.Fatalf("vertex %d is %q (%v), was %q", id, gg.Key(id), v, pg.Key(id))
				}
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotDamageRejected flips every bit and cuts at every length of a
// snapshot.bin: each damaged file is a corrupt snapshot, never a policy.
func TestSnapshotDamageRejected(t *testing.T) {
	good := snapshotBytes(t, snapshotMeta{Seq: 7, SeqEpoch: 2, Epoch: 3, Placement: []byte(`{"v":1}`)}, snapshotFixtures(t)["tricky"])
	if _, _, err := decodeSnapshot(good); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	try := func(data []byte, what string, n int) {
		if _, pol, err := decodeSnapshot(data); err == nil || pol != nil {
			t.Fatalf("%s %d of %d decoded (err %v)", what, n, len(good), err)
		}
		// Every 37th case also goes through the file and Open.
		if n%37 == 0 {
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), data, 0o644); err != nil {
				t.Fatal(err)
			}
			wantCorrupt(t, dir, what)
		}
	}
	for bit := 0; bit < 8*len(good); bit++ {
		damaged := append([]byte(nil), good...)
		damaged[bit/8] ^= 1 << (bit % 8)
		try(damaged, "bit flip", bit)
	}
	for cut := 0; cut < len(good); cut++ {
		try(good[:cut], "truncation", cut)
	}
	try(append(append([]byte(nil), good...), 0), "extension", 0)
}

// TestSnapshotBinDecidesAlone covers the two directories an upgrade can leave
// behind. Both files present (a crash between the rename and the removal):
// snapshot.bin is the newer one and is what opens. A corrupt snapshot.bin
// beside a valid snapshot.json: the open fails — falling back would serve a
// state that may be behind acknowledged writes.
func TestSnapshotBinDecidesAlone(t *testing.T) {
	older, newer := policy.Figure1(), policy.Figure2()
	oldJSON := `{"seq":3,"policy":` + mustJSON(t, older) + `}`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, legacySnapshotFile), []byte(oldJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := snapshotBytes(t, snapshotMeta{Seq: 9}, newer)
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), bin, 0o644); err != nil {
		t.Fatal(err)
	}
	s, got, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Seq() != 9 || !got.Equal(newer) {
		t.Fatalf("opened seq %d, equal to the snapshot.bin policy: %v", s.Seq(), got.Equal(newer))
	}
	s.Close()

	bin[len(bin)-1] ^= 1
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), bin, 0o644); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, dir, "corrupt snapshot.bin beside a valid snapshot.json")
}

func mustJSON(t *testing.T, p *policy.Policy) string {
	t.Helper()
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// snapshotBytes is encodeSnapshot for policies that fit the frame.
func snapshotBytes(tb testing.TB, meta snapshotMeta, p *policy.Policy) []byte {
	tb.Helper()
	b, err := encodeSnapshot(meta, p)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzSnapshotDecode: arbitrary bytes never panic the snapshot decoder, no
// count in them is trusted beyond the bytes backing it, and whatever is
// accepted is a valid policy that survives the encoder and decoder unchanged.
func FuzzSnapshotDecode(f *testing.F) {
	for _, p := range snapshotFixtures(f) {
		f.Add(snapshotBytes(f, snapshotMeta{Seq: 7, SeqEpoch: 2, Epoch: 3, Placement: []byte(`{"v":1}`)}, p))
	}
	// A sealed frame whose policy claims 2^32 vertices in six bytes.
	f.Add(reseal(append([]byte(snapshotMagic+"\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0x0f, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(append([]byte(snapshotMagic+"\x00\x00\x00\x00\x00\x00\x00\x00"), data...))} {
			meta, pol, err := decodeSnapshot(in)
			if err != nil {
				if pol != nil {
					t.Fatal("a failed decode returned a policy")
				}
				continue
			}
			if err := pol.Validate(); err != nil {
				t.Fatalf("decoded an invalid policy: %v", err)
			}
			meta2, pol2, err := decodeSnapshot(snapshotBytes(t, meta, pol))
			if err != nil || meta2.Seq != meta.Seq || meta2.SeqEpoch != meta.SeqEpoch || meta2.Epoch != meta.Epoch ||
				string(meta2.Placement) != string(meta.Placement) || !pol2.Equal(pol) ||
				pol2.Graph().NumVertices() != pol.Graph().NumVertices() {
				t.Fatalf("accepted snapshot does not survive a re-encode (err %v): %q", err, in)
			}
		}
	})
}
