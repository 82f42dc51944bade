package storage

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// recordV1 is a record as log format v1 stored it: the JSON Record of the
// previous version, kept as the reference for the v1 reader as twoPassMeta
// is for snapshot.json.
type recordV1 struct {
	Kind    string          `json:"kind,omitempty"`
	Seq     int             `json:"seq"`
	Actor   string          `json:"actor"`
	Op      string          `json:"op"`
	From    json.RawMessage `json:"from"`
	To      json.RawMessage `json:"to"`
	Outcome string          `json:"outcome"`
	Reason  string          `json:"reason,omitempty"`
	ASeq    uint64          `json:"aseq,omitempty"`
	Epoch   uint64          `json:"epoch,omitempty"`
	Data    json.RawMessage `json:"data,omitempty"`
}

// v1Frame is the previous version's EncodeFrame.
func v1Frame(buf []byte, r recordV1) []byte {
	payload, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	return append(append(buf, hdr[:]...), payload...)
}

// asV1 is what the previous version's NewStepRecord, NewAuditRecord,
// SetEpoch and SetPlacement built for the same record.
func asV1(t testing.TB, r Record) recordV1 {
	t.Helper()
	v := recordV1{Kind: kindNames[r.Kind], Seq: r.Seq, Reason: r.Reason, ASeq: r.ASeq, Epoch: r.Epoch, Data: r.Data}
	if r.IsControl() {
		return v
	}
	var err error
	if v.From, err = model.MarshalVertex(r.Cmd.From); err != nil {
		t.Fatal(err)
	}
	if v.To, err = model.MarshalVertex(r.Cmd.To); err != nil {
		t.Fatal(err)
	}
	v.Actor, v.Op, v.Outcome = r.Cmd.Actor, r.Cmd.Op.String(), r.Outcome.WireName()
	return v
}

// trickyNames hold every character the key syntax escapes, non-ASCII, JSON's
// HTML escapes and the empty name.
var trickyNames = []string{"bob", "a,b", "x:y", "(p)", "100%", "%28", "ü→ß", "<&>", "", "+(u:a,r:b)"}

// randomHistory is a seeded history of every record shape: steps and their
// audits over nested, revoke and ungrammatical privileges (the audit of an
// ill-formed command keeps its vertex), denials with reasons, epoch and
// placement control records, and the widest seq, epoch and aseq.
func randomHistory(rng *rand.Rand, n int) []Record {
	name := func() string { return trickyNames[rng.Intn(len(trickyNames))] }
	entity := func() model.Entity {
		if rng.Intn(2) == 0 {
			return model.User(name())
		}
		return model.Role(name())
	}
	var vertex func(depth int) model.Vertex
	vertex = func(depth int) model.Vertex {
		switch rng.Intn(4) {
		case 0:
			return entity()
		case 1:
			return model.Perm(name(), name())
		default:
			// WireOf writes a role destination by name alone, so a v1 record
			// could only ever hold one there.
			var dst model.Vertex = model.Role(name())
			if depth < 3 {
				if p, ok := vertex(depth + 1).(model.Privilege); ok {
					dst = p
				}
			}
			return model.AdminPrivilege{Op: model.Op(1 + rng.Intn(2)), Src: entity(), Dst: dst}
		}
	}
	wide := func(max uint64) uint64 {
		if rng.Intn(4) == 0 {
			return max
		}
		return uint64(rng.Intn(1000))
	}
	out := make([]Record, 0, n)
	for len(out) < n {
		r := Record{Kind: Kind(rng.Intn(len(kindNames))), Seq: int(wide(math.MaxInt)), Epoch: wide(math.MaxUint64)}
		switch r.Kind {
		case KindPlacement:
			r.Seq, r.Epoch, r.Data = 0, 0, []byte(`{"version":7,"owners":{"ü":"n1"}}`)
		case KindEpoch:
			r.Seq = 0
		default:
			r.Cmd = command.Command{Actor: name(), Op: model.Op(1 + rng.Intn(2)), From: vertex(0), To: vertex(0)}
			r.Outcome = command.Outcome(1 + rng.Intn(4))
			if r.Kind == KindAudit {
				r.ASeq = wide(math.MaxUint64)
				if r.Outcome == command.Denied && rng.Intn(2) == 0 {
					r.Reason = "SSD " + name() + " violated"
				}
			}
		}
		out = append(out, r)
	}
	return out
}

// TestRecordFormsRefineTheAbstractLog: over seeded histories, a record's
// binary frame (v2), its JSON frame as the previous version wrote it (v1),
// and its JSON at the edge all decode to the same record — one abstract log
// of (seq, epoch, command, outcome), whichever concrete form carried it —
// and the edge JSON is byte for byte what v1 stored.
func TestRecordFormsRefineTheAbstractLog(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want := randomHistory(rand.New(rand.NewSource(seed)), 200)
		var v2, v1 []byte
		for _, r := range want {
			var err error
			if v2, err = EncodeFrame(v2, r); err != nil {
				t.Fatalf("seed %d: encode %+v: %v", seed, r, err)
			}
			v1 = v1Frame(v1, asV1(t, r))
			edge, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			old, _ := json.Marshal(asV1(t, r))
			if string(edge) != string(old) {
				t.Fatalf("seed %d: edge JSON\n%s\nwant the v1 shape\n%s", seed, edge, old)
			}
			var back Record
			if err := json.Unmarshal(edge, &back); err != nil || !reflect.DeepEqual(back, r) {
				t.Fatalf("seed %d: edge JSON %s decoded to %+v (%v), want %+v", seed, edge, back, err, r)
			}
		}
		for form, data := range map[string][]byte{"v2": v2, "v1": v1, "mixed": append(v1[:len(v1):len(v1)], v2...)} {
			end, got := DecodeFrames(data)
			if form == "mixed" {
				want = append(want[:len(want):len(want)], want...)
			}
			if end != len(data) || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s stream decoded %d of %d bytes, %d of %d records", seed, form, end, len(data), len(got), len(want))
			}
			want = want[:200]
		}
	}
}

// TestEncodeFrameRefusesWhatCannotBeRead: a command with no key, or an op
// outside the grammar, never reaches the log — a frame no decoder can read
// would end every later replay at it.
func TestEncodeFrameRefusesWhatCannotBeRead(t *testing.T) {
	for _, c := range []command.Command{
		{Actor: "a", Op: model.OpGrant, From: model.User("u"), To: nil},
		{Actor: "a", Op: model.OpGrant, From: model.Entity{Name: "kindless"}, To: model.Role("r")},
		{Actor: "a", Op: 0, From: model.User("u"), To: model.Role("r")},
		{Actor: "a", Op: model.OpGrant, From: model.Role("r"), To: model.AdminPrivilege{Op: 9, Src: model.Role("r"), Dst: model.Role("s")}},
	} {
		if buf, err := EncodeFrame(nil, Record{Kind: KindAudit, Cmd: c, Outcome: command.IllFormed}); err == nil || len(buf) != 0 {
			t.Errorf("%v: encoded %d bytes (err %v)", c, len(buf), err)
		}
	}
}

// TestV1LogReopensAndUpgrades opens a log the previous version wrote — steps,
// audits with their persisted cursors (gapped, as after a compaction), the
// audit of an ill-formed command, epoch and placement control records and a
// torn tail — and requires the state v1 recovery would have built: policy,
// seq, epoch, placement and audit trail. The magic is flipped to v2 before
// anything else; appends then go in binary and the mixed log reopens.
func TestV1LogReopensAndUpgrades(t *testing.T) {
	steps := []command.Command{
		command.Grant("jane", model.User("a,b"), model.Role("x:y")),
		command.Grant("jane", model.Role("x:y"), model.Role("ü→ß")),
		command.Grant("jane", model.Role("ü→ß"), model.Revoke(model.Role("(p)"), model.Grant(model.User("100%"), model.Role("x:y")))),
		command.Grant("jane", model.User("bob"), model.Role("x:y")),
		command.Revoke("jane", model.User("bob"), model.Role("x:y")),
	}
	wantPol := policy.New()
	var log []byte
	var wantAudit []Record
	audit := func(r Record) {
		wantAudit = append(wantAudit, r)
		log = v1Frame(log, asV1(t, r))
	}
	log = v1Frame(log, asV1(t, Record{Kind: KindEpoch, Epoch: 2}))
	log = v1Frame(log, asV1(t, Record{Kind: KindPlacement, Data: []byte(`{"version":1}`)}))
	for i, c := range steps {
		if _, err := command.Apply(wantPol, c); err != nil {
			t.Fatal(err)
		}
		r := Record{Seq: i + 1, Cmd: c, Outcome: command.Applied, Epoch: 2}
		log = v1Frame(log, asV1(t, r))
		r.Kind, r.ASeq = KindAudit, uint64(40+i)
		audit(r)
	}
	// Ill-formed (a user granted a privilege, from the wire plane, which
	// never checked the grammar) and vetoed: observations at seq 5 only.
	audit(Record{Kind: KindAudit, Seq: 5, ASeq: 50, Epoch: 2, Outcome: command.IllFormed,
		Cmd: command.Grant("jane", model.User(""), model.Grant(model.User("x"), model.Perm("read", "")))})
	audit(Record{Kind: KindAudit, Seq: 5, ASeq: 51, Epoch: 2, Outcome: command.Denied, Reason: "SSD eng-qa violated by bob",
		Cmd: command.Grant("jane", model.User("bob"), model.Role("qa"))})
	log = v1Frame(log, asV1(t, Record{Kind: KindEpoch, Epoch: 3}))
	torn := v1Frame(nil, asV1(t, Record{Seq: 6, Cmd: steps[3], Outcome: command.Applied, Epoch: 3}))
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(path, append(append([]byte(logMagicV1), log...), torn[:len(torn)-4]...), 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(st *Store, pol *policy.Policy, seq int, audit []Record) {
		t.Helper()
		gotAudit, total := st.Audit(0, 0)
		if !pol.Equal(wantPol) || st.Seq() != seq || st.Epoch() != 3 || string(st.Placement()) != `{"version":1}` ||
			total != uint64(len(audit)) || !reflect.DeepEqual(gotAudit, audit) {
			t.Fatalf("reopened at seq %d epoch %d placement %s policy equal %v, audit %+v\nwant seq %d, audit %+v",
				st.Seq(), st.Epoch(), st.Placement(), pol.Equal(wantPol), gotAudit, seq, audit)
		}
		// Every persisted cursor pages as it did.
		if page, _ := st.Audit(audit[1].ASeq, 2); !reflect.DeepEqual(page, audit[2:4]) {
			t.Fatalf("audit after aseq %d = %+v", audit[1].ASeq, page)
		}
	}
	st, pol, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.DroppedBytes != len(torn)-4 || rec.Records != len(steps) {
		t.Fatalf("recovery %+v", rec)
	}
	check(st, pol, len(steps), wantAudit)
	if magic := readMagic(t, path); magic != logMagic {
		t.Fatalf("magic after open = %q", magic)
	}

	// Appends continue in binary after the JSON frames.
	res := command.StepResult{Cmd: steps[3], Outcome: command.Applied}
	if _, err := command.Apply(wantPol, steps[3]); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRecords(NewStepRecord(6, res), NewAuditRecord(6, res, "")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	data, _ := os.ReadFile(path)
	if _, last := DecodeFrames(data[len(logMagic)+len(log):]); len(last) != 2 || data[len(logMagic)+len(log)+8] == '{' {
		t.Fatalf("appended frames: %d records, first payload byte %q", len(last), data[len(logMagic)+len(log)+8])
	}
	wantAudit = append(wantAudit, Record{Kind: KindAudit, Seq: 6, ASeq: 52, Cmd: steps[3], Outcome: command.Applied, Epoch: 0})
	st, pol, _, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(st, pol, 6, wantAudit)

	// A compaction re-appends the window in binary; nothing of it changes.
	if err := st.Compact(pol); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st, pol, _, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check(st, pol, 6, wantAudit)
}

func readMagic(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil || len(data) < len(logMagic) {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(data[:len(logMagic)])
}
