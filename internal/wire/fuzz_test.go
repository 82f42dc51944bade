package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/workload"
)

// fuzzSeeds builds the seed streams FuzzWireDecode starts from (also used by
// the corpus generator test): well-formed request and response frames, a
// torn tail, a bit flip, garbage, and an implausible length — the same
// shapes FuzzWALDecode seeds for the WAL codec.
func fuzzSeeds(fatal func(error)) [][]byte {
	frame := func(reqs ...Request) []byte {
		var buf []byte
		var err error
		for i := range reqs {
			if buf, err = AppendRequest(buf, &reqs[i]); err != nil {
				fatal(err)
			}
		}
		return buf
	}
	authz := Request{Op: OpAuthorize, ID: 1, MinGen: 9, DeadlineMS: 250, Flags: FlagJustify,
		Tenant: "t0", Cmds: []command.Command{workload.ChurnGrant(0, 8, 8)}}
	nested := Request{Op: OpSubmit, ID: 2, Tenant: "t0", Cmds: []command.Command{{
		Actor: "so", Op: model.OpGrant, From: model.Role("hr"),
		To: model.Grant(model.Role("flex"), model.Grant(model.User("u1"), model.Role("staff"))),
	}}}
	check := Request{Op: OpCheck, ID: 3, Tenant: "t0", Session: 7,
		Checks: []Check{{Action: "read", Object: "obj"}}}
	screate := Request{Op: OpSessionCreate, ID: 4, Tenant: "t0", User: "u0", Roles: []string{"c0000"}}
	supdate := Request{Op: OpSessionUpdate, ID: 5, Tenant: "t0", Session: 7,
		Activate: []string{"c0001"}, Deactivate: []string{"c0000"}}
	ping := Request{Op: OpPing, ID: 6}
	// Names made of the key syntax's own characters and non-ASCII, in a
	// nested revoke privilege: every vertex travels as its escaped key.
	tricky := Request{Op: OpSubmit, ID: 7, Tenant: "t0", Cmds: []command.Command{command.Revoke("ü(,)",
		model.Role("a:b%"), model.Revoke(model.Role("r,1"), model.Perm("read(x)", "o:%")))}}

	respFrame := func(resps ...Response) []byte {
		var buf []byte
		var err error
		for i := range resps {
			if buf, err = AppendResponse(buf, &resps[i]); err != nil {
				fatal(err)
			}
		}
		return buf
	}
	okAuthz := Response{Status: StatusOK, ID: 1, Generation: 5,
		Authz: []AuthzResult{{Allowed: true, Justification: "¤(member, c0000)"}}}
	fenced := Response{Status: StatusFenced, ID: 2, Epoch: 3,
		Message: "node was deposed", RetryAfterSec: 1, Node: "n2:4100", MinGen: 12}

	pipelined := frame(authz, nested, check, screate, supdate, ping)
	return [][]byte{
		{},
		frame(authz),
		frame(nested),
		frame(check),
		frame(screate, supdate),
		frame(ping),
		pipelined,
		respFrame(okAuthz, fenced),
		pipelined[:len(pipelined)-3],          // torn tail
		pipelined[:len(frame(authz))+5],       // tear inside the second header
		append(frame(ping), 0xde, 0xad, 0xbe), // garbage tail
		flipBit(frame(authz, ping), 12),       // bit flip in the first payload
		{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0},  // implausible length
		appendFrame(nil, []byte{0xff, 0x01, 0x02}),    // CRC-valid garbage body
		appendFrame(nil, nil),                         // empty payload
		appendFrame(nil, bytes.Repeat([]byte{9}, 40)), // CRC-valid noise
		frame(tricky),
	}
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0x10
	return out
}

// FuzzWireDecode holds the stream-decode contract under arbitrary input:
// DecodeFrames never panics, returns an exact valid prefix that re-frames
// byte-for-byte, and every CRC-valid payload survives a ParseRequest /
// ParseResponse pass (with and without an interner) without panicking;
// payloads that parse re-encode to a frame that parses back to the same
// request.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(func(err error) { f.Fatal(err) }) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		validEnd, payloads := decodeFrames(data)
		if validEnd < 0 || validEnd > len(data) {
			t.Fatalf("validEnd %d out of range [0,%d]", validEnd, len(data))
		}
		// The valid prefix re-frames canonically: framing adds nothing the
		// payload doesn't determine.
		var rebuilt []byte
		for _, p := range payloads {
			rebuilt = appendFrame(rebuilt, p)
		}
		if !bytes.Equal(rebuilt, data[:validEnd]) {
			t.Fatalf("re-framed prefix differs from input prefix (validEnd %d)", validEnd)
		}
		// Chopping the stream anywhere inside the tail never changes the
		// already-valid prefix (prefix stability).
		if validEnd < len(data) {
			chopEnd, chopped := decodeFrames(data[:validEnd+(len(data)-validEnd)/2])
			if chopEnd != validEnd || len(chopped) != len(payloads) {
				t.Fatalf("chopped tail moved the valid prefix: %d -> %d", validEnd, chopEnd)
			}
		}

		in := NewInterner()
		var req, req2 Request
		var resp Response
		for _, p := range payloads {
			// Requests: parse (interned and plain), and when the payload is
			// well-formed, re-encode and re-parse to the same request.
			if err := ParseRequest(p, &req, in); err == nil {
				buf, err := AppendRequest(nil, &req)
				if err != nil {
					t.Fatalf("re-encode parsed request: %v", err)
				}
				payload, _, ok, ferr := NextFrame(buf)
				if ferr != nil || !ok {
					t.Fatalf("re-encoded request frame: ok=%v err=%v", ok, ferr)
				}
				if err := ParseRequest(payload, &req2, nil); err != nil {
					t.Fatalf("re-parse re-encoded request: %v", err)
				}
				if !reqEqual(&req, &req2) {
					t.Fatalf("request round trip drifted:\n first %+v\nsecond %+v", &req, &req2)
				}
			} else {
				// Must fail identically without the interner.
				if err2 := ParseRequest(p, &req2, nil); err2 == nil {
					t.Fatalf("interned parse failed (%v) but plain parse succeeded", err)
				}
			}
			// Responses: every opcode's body decoder must hold against the
			// same bytes without panicking.
			for op := OpAuthorize; op <= OpPing; op++ {
				_ = ParseResponse(p, op, &resp)
			}
		}
	})
}

// TestSeedCorpusCommitted verifies the committed seed corpus under
// testdata/fuzz/FuzzWireDecode matches the generated seeds, so the corpus
// the CI fuzz job replays cannot drift from the encoder. Regenerate with
// WIRE_WRITE_CORPUS=1 go test ./internal/wire -run TestSeedCorpusCommitted.
func TestSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecode")
	seeds := fuzzSeeds(func(err error) { t.Fatal(err) })
	if os.Getenv("WIRE_WRITE_CORPUS") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, seed := range seeds {
		body, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)))
		if err != nil {
			t.Fatalf("seed %d missing (regenerate with WIRE_WRITE_CORPUS=1): %v", i, err)
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if string(body) != want {
			t.Fatalf("seed %d drifted from the encoder (regenerate with WIRE_WRITE_CORPUS=1)", i)
		}
	}
}
