package storage

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
)

// TestReadSinceTailMatchesFile pins the in-memory tail cache against the
// file-decode path: head-position reads serve from the tail, positions
// older than the trimmed window fall back to the file, and both agree with
// each other across reopen (which reseeds the tail from the decoded log).
func TestReadSinceTailMatchesFile(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Enough records to trim the tail (maxTail) at least once, so ReadSince
	// below exercises both the cached window and the file fallback.
	const n = maxTail + 500
	for i := 1; i <= n; i++ {
		r := Record{Seq: i, Cmd: command.Grant("a", model.User("u"), model.Role("r")), Outcome: command.Applied}
		if err := st.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store, afterSeq int) {
		t.Helper()
		recs, gap, err := s.ReadSince(afterSeq)
		if err != nil || gap {
			t.Fatalf("ReadSince(%d): gap=%v err=%v", afterSeq, gap, err)
		}
		if len(recs) != n-afterSeq {
			t.Fatalf("ReadSince(%d): %d records, want %d", afterSeq, len(recs), n-afterSeq)
		}
		for i, r := range recs {
			if r.Seq != afterSeq+1+i {
				t.Fatalf("ReadSince(%d): record %d has seq %d", afterSeq, i, r.Seq)
			}
		}
	}
	for _, afterSeq := range []int{0, 1, maxTail / 2, n - 100, n - 1} {
		check(st, afterSeq) // 0 and maxTail/2 predate the trimmed tail → file path
	}
	st.Close()

	st2, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, afterSeq := range []int{0, n - 100, n - 1} {
		check(st2, afterSeq)
	}
}

// TestReadSinceSurvivesCompaction pins the retained-tail contract: a head
// compaction truncates the file but keeps recent records servable, while a
// snapshot installed at a jumped position (CompactAt) drops them — the two
// sides of the gap/bootstrap decision.
func TestReadSinceSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	st, pol, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 40
	for i := 1; i <= n; i++ {
		r := Record{Seq: i, Cmd: command.Grant("a", model.User("u"), model.Role("r")), Outcome: command.Denied}
		if err := st.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(pol); err != nil {
		t.Fatal(err)
	}
	// The file is truncated (snapBase == seq == n) but the tail still
	// serves any position it covers.
	recs, gap, err := st.ReadSince(n - 15)
	if err != nil || gap {
		t.Fatalf("post-compaction ReadSince: gap=%v err=%v", gap, err)
	}
	if len(recs) != 15 || recs[0].Seq != n-14 {
		t.Fatalf("post-compaction ReadSince served %d records from %d", len(recs), recs[0].Seq)
	}
	// A snapshot installed at a jumped position disconnects the tail: the
	// old records no longer extend to the new state.
	if err := st.CompactAt(pol, n+10, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, gap, err := st.ReadSince(n); err != nil || !gap {
		t.Fatalf("post-jump ReadSince(%d): gap=%v err=%v, want gap", n, gap, err)
	}
}

// FuzzWALDecode fuzzes the shared frame decoder — the parser both the WAL
// recovery path and the replication pull client run over bytes that crossed
// a crash or a network, in both record forms (v1 JSON, v2 binary). Properties:
// never panic, never read past the input, report a valid prefix whose records
// re-encode (in the binary form) to frames that decode to the same records,
// and stay prefix-stable (decoding a truncation of the input never yields
// records the full input did not).
func FuzzWALDecode(f *testing.F) {
	// Seed with well-formed streams, a torn tail, and corrupt bytes: first
	// the JSON frames of log format v1, as its encoder wrote them.
	frame := func(recs ...recordV1) []byte {
		var buf []byte
		for _, r := range recs {
			buf = v1Frame(buf, r)
		}
		return buf
	}
	rec := recordV1{Seq: 1, Actor: "jane", Op: "grant",
		From: json.RawMessage(`{"user":"bob"}`), To: json.RawMessage(`{"role":"staff"}`), Outcome: "applied"}
	rec2 := rec
	rec2.Seq, rec2.Op, rec2.Outcome = 2, "revoke", "denied"
	// The audit record kind rides the same framing: a step with its audit
	// twin (the commit-hook layout), a standalone veto audit, and a tear
	// landing between a step and its audit.
	audit := rec
	audit.Kind, audit.Reason = "audit", ""
	veto := rec2
	veto.Kind, veto.Reason = "audit", "SSD eng-qa violated by bob"
	f.Add([]byte{})
	f.Add(frame(rec))
	f.Add(frame(rec, rec2))
	f.Add(frame(rec, audit))
	f.Add(frame(rec, audit, veto))
	f.Add(frame(rec, rec2)[:len(frame(rec, rec2))-3])   // torn tail
	f.Add(frame(rec, audit)[:len(frame(rec, audit))-5]) // torn mixed step/audit tail
	f.Add(frame(rec, audit, veto)[:len(frame(rec))+4])  // tear inside the audit header
	f.Add(append(frame(veto), 0xff, 0x00, 0x13))        // garbage after an audit frame
	f.Add(append(frame(rec), 0xff, 0x00, 0x13))         // garbage tail
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})   // implausible length
	// Then the binary frames of log format v2, alone, torn, and after v1
	// frames as an upgraded log holds them.
	bin := func(recs ...Record) []byte {
		var buf []byte
		for _, r := range recs {
			var err error
			if buf, err = EncodeFrame(buf, r); err != nil {
				f.Fatal(err)
			}
		}
		return buf
	}
	step := Record{Seq: 1, Cmd: command.Grant("jane", model.User("bob"), model.Role("staff")), Outcome: command.Applied, Epoch: 2}
	nested := Record{Kind: KindAudit, Seq: 2, ASeq: 7, Outcome: command.Denied, Reason: "SSD eng-qa violated by bob",
		Cmd: command.Revoke("ü(,)", model.Role("a:b%"), model.Revoke(model.Role("r,1"), model.Grant(model.User("x"), model.Role("y"))))}
	epoch := Record{Kind: KindEpoch, Epoch: math.MaxUint64}
	place := Record{Kind: KindPlacement, Data: []byte(`{"version":3}`)}
	f.Add(bin(step))
	f.Add(bin(step, nested, epoch, place))
	f.Add(bin(step, nested)[:len(bin(step))+9])
	f.Add(append(frame(rec, audit), bin(step, nested)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		validEnd, records := DecodeFrames(data)
		if validEnd < 0 || validEnd > len(data) {
			t.Fatalf("validEnd %d out of range [0,%d]", validEnd, len(data))
		}
		// Round-trip: the decoded records re-encode, and decode back to the
		// same records from the whole re-encoded stream.
		var rebuilt []byte
		var err error
		for _, r := range records {
			if rebuilt, err = EncodeFrame(rebuilt, r); err != nil {
				t.Fatalf("re-encode decoded record %+v: %v", r, err)
			}
		}
		if end2, records2 := DecodeFrames(rebuilt); end2 != len(rebuilt) || !reflect.DeepEqual(records2, records) {
			t.Fatalf("re-encoded prefix decodes to %d/%d records", len(records2), len(records))
		}
		// Prefix stability: truncating the input never invents records.
		if validEnd > 0 {
			cutEnd, cutRecords := DecodeFrames(data[:validEnd-1])
			if cutEnd > validEnd-1 || len(cutRecords) > len(records) {
				t.Fatalf("truncated input decoded further: end %d records %d", cutEnd, len(cutRecords))
			}
		}
	})
}
