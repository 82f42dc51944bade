package wire

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
	"adminrefine/internal/service"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// testRegistry opens a registry whose tenants bootstrap to the churn fixture:
// u0 holds c0000 (so sessions over c0000 check read/obj), churnadmin is
// authorized for every ChurnGrant.
func testRegistry(t testing.TB) *tenant.Registry {
	t.Helper()
	reg := tenant.New(tenant.Options{
		Dir:       t.TempDir(),
		Mode:      engine.Refined,
		Bootstrap: func(string) *policy.Policy { return workload.ChurnPolicy(8, 8) },
	})
	t.Cleanup(func() { _ = reg.Close() })
	return reg
}

// startServer serves a request core built from cfg on a loopback listener
// and tears it down with the test.
func startServer(t testing.TB, cfg service.Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Core: service.New(cfg)})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func testClient(t testing.TB, addr string, opts ClientOptions) *Client {
	t.Helper()
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 10 * time.Second
	}
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// reqEqual compares the decoded fields of two requests, treating empty and
// nil slices as equal (reset keeps capacity, so decoded requests carry empty
// non-nil slices).
func reqEqual(a, b *Request) bool {
	slices := func(x, y []string) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if a.Op != b.Op || a.ID != b.ID || a.MinGen != b.MinGen ||
		a.DeadlineMS != b.DeadlineMS || a.Flags != b.Flags ||
		a.Tenant != b.Tenant || a.Session != b.Session || a.User != b.User {
		return false
	}
	if len(a.Cmds) != len(b.Cmds) {
		return false
	}
	for i := range a.Cmds {
		if !reflect.DeepEqual(a.Cmds[i], b.Cmds[i]) {
			return false
		}
	}
	if len(a.Checks) != len(b.Checks) {
		return false
	}
	for i := range a.Checks {
		if a.Checks[i] != b.Checks[i] {
			return false
		}
	}
	return slices(a.Roles, b.Roles) && slices(a.Activate, b.Activate) && slices(a.Deactivate, b.Deactivate)
}

func TestRequestRoundTrip(t *testing.T) {
	nested := command.Command{
		Actor: "so",
		Op:    model.OpGrant,
		From:  model.Role("hr"),
		To:    model.Grant(model.Role("flex"), model.Grant(model.User("u1"), model.Role("staff"))),
	}
	cases := []Request{
		{Op: OpAuthorize, ID: 7, MinGen: 42, DeadlineMS: 250, Flags: FlagJustify, Tenant: "t0",
			Cmds: []command.Command{workload.ChurnGrant(0, 8, 8), nested}},
		{Op: OpSubmit, ID: 8, Tenant: "t1", Cmds: []command.Command{workload.ChurnGrant(3, 8, 8)}},
		{Op: OpCheck, ID: 9, Tenant: "t0", Session: 11,
			Checks: []Check{{Action: "read", Object: "obj"}, {Action: "write", Object: "obj"}}},
		{Op: OpSessionCreate, ID: 10, Tenant: "t0", User: "u0", Roles: []string{"c0000", "c0001"}},
		{Op: OpSessionUpdate, ID: 11, Tenant: "t0", Session: 3,
			Activate: []string{"c0001"}, Deactivate: []string{"c0000"}},
		{Op: OpSessionDelete, ID: 12, Tenant: "t0", Session: 4},
		{Op: OpPing, ID: 13},
	}
	for _, in := range interners() {
		for i := range cases {
			want := &cases[i]
			buf, err := AppendRequest(nil, want)
			if err != nil {
				t.Fatalf("%v: encode: %v", want.Op, err)
			}
			payload, n, ok, err := NextFrame(buf)
			if err != nil || !ok || n != len(buf) {
				t.Fatalf("%v: frame: n=%d ok=%v err=%v", want.Op, n, ok, err)
			}
			var got Request
			if err := ParseRequest(payload, &got, in); err != nil {
				t.Fatalf("%v: decode: %v", want.Op, err)
			}
			if !reqEqual(want, &got) {
				t.Fatalf("%v: round trip mismatch:\n want %+v\n  got %+v", want.Op, want, &got)
			}
		}
	}
}

// interners gives round-trip tests both decode paths: interned and plain.
func interners() []*Interner { return []*Interner{nil, NewInterner()} }

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		op   Opcode
		resp Response
	}{
		{OpAuthorize, Response{Status: StatusOK, ID: 1, Generation: 5, Epoch: 2,
			Authz: []AuthzResult{{Allowed: true, Justification: "¤(member, c0000)"}, {Allowed: false}}}},
		{OpSubmit, Response{Status: StatusOK, ID: 2, Generation: 6,
			Steps: []StepOutcome{{Outcome: OutcomeApplied}, {Outcome: OutcomeDenied, Justification: "x"}}}},
		{OpCheck, Response{Status: StatusOK, ID: 3, Generation: 7, Allowed: []bool{true, false, true}}},
		{OpSessionCreate, Response{Status: StatusOK, ID: 4, Generation: 8,
			Session: 77, User: "u0", Roles: []string{"c0000"}}},
		{OpSessionDelete, Response{Status: StatusOK, ID: 5}},
		{OpPing, Response{Status: StatusOK, ID: 6, Epoch: 9}},
		{OpSubmit, Response{Status: StatusFenced, ID: 7, Epoch: 3,
			Message: "node was deposed", RetryAfterSec: 1, Node: "n2:4100", MinGen: 12}},
		{OpAuthorize, Response{Status: StatusStaleGeneration, ID: 8, Generation: 4,
			Message: "replica behind requested generation", MinGen: 9}},
	}
	for _, tc := range cases {
		buf, err := AppendResponse(nil, &tc.resp)
		if err != nil {
			t.Fatalf("%v/%v: encode: %v", tc.op, tc.resp.Status, err)
		}
		payload, _, ok, err := NextFrame(buf)
		if err != nil || !ok {
			t.Fatalf("%v: frame: ok=%v err=%v", tc.op, ok, err)
		}
		var got Response
		if err := ParseResponse(payload, tc.op, &got); err != nil {
			t.Fatalf("%v/%v: decode: %v", tc.op, tc.resp.Status, err)
		}
		want := tc.resp
		// reset leaves empty non-nil slices; normalize before comparing.
		if len(want.Authz) == 0 {
			want.Authz, got.Authz = nil, nil
		}
		if len(want.Steps) == 0 {
			want.Steps, got.Steps = nil, nil
		}
		if len(want.Allowed) == 0 {
			want.Allowed, got.Allowed = nil, nil
		}
		if len(want.Roles) == 0 {
			want.Roles, got.Roles = nil, nil
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v/%v: round trip mismatch:\n want %+v\n  got %+v", tc.op, tc.resp.Status, want, got)
		}
	}
}

func TestStatusCodeMappingBijective(t *testing.T) {
	for st := StatusBadRequest; st <= statusMax; st++ {
		if got := StatusFromCode(st.Code()); got != st {
			t.Errorf("status %d -> code %q -> status %d", st, st.Code(), got)
		}
	}
	if StatusOK.Code() != api.CodeInternal {
		// Code() on OK is never used; it falls through to internal. Pin that
		// so a refactor doesn't silently invent a 12th code.
		t.Errorf("StatusOK.Code() = %q", StatusOK.Code())
	}
}

// frameHeaderLen is the fixed [len][crc] prefix of every frame.
const frameHeaderLen = 8

// appendFrame appends one frame carrying payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst, err := command.AppendFrame(dst, maxFramePayload, func(b []byte) ([]byte, error) { return append(b, payload...), nil })
	if err != nil {
		panic(err)
	}
	return dst
}

// decodeFrames scans data for whole, checksummed frames from the front and
// returns their payloads and the offset one past the last good frame: the
// exact valid prefix, stopping at the first torn, corrupt or implausible one.
func decodeFrames(data []byte) (validEnd int, payloads [][]byte) {
	for {
		payload, n, ok, err := NextFrame(data[validEnd:])
		if !ok || err != nil {
			return validEnd, payloads
		}
		payloads = append(payloads, payload)
		validEnd += n
	}
}

func TestDecodeFramesExactValidPrefix(t *testing.T) {
	mk := func(payload []byte) []byte { return appendFrame(nil, payload) }
	f1, f2, f3 := mk([]byte("one")), mk([]byte("two!")), mk([]byte("three"))
	stream := append(append(append([]byte{}, f1...), f2...), f3...)

	validEnd, payloads := decodeFrames(stream)
	if validEnd != len(stream) || len(payloads) != 3 {
		t.Fatalf("clean stream: validEnd=%d payloads=%d", validEnd, len(payloads))
	}

	// Bit flip inside the second frame's payload: decode stops exactly after
	// the first frame.
	corrupt := append([]byte{}, stream...)
	corrupt[len(f1)+frameHeaderLen] ^= 0x40
	validEnd, payloads = decodeFrames(corrupt)
	if validEnd != len(f1) || len(payloads) != 1 || string(payloads[0]) != "one" {
		t.Fatalf("corrupt middle: validEnd=%d (want %d) payloads=%d", validEnd, len(f1), len(payloads))
	}

	// Torn tail: the partial third frame is invisible.
	torn := stream[:len(f1)+len(f2)+3]
	validEnd, payloads = decodeFrames(torn)
	if validEnd != len(f1)+len(f2) || len(payloads) != 2 {
		t.Fatalf("torn tail: validEnd=%d payloads=%d", validEnd, len(payloads))
	}

	// Implausible length: nothing decodes, no panic, no allocation attempt.
	validEnd, payloads = decodeFrames([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	if validEnd != 0 || len(payloads) != 0 {
		t.Fatalf("implausible length: validEnd=%d payloads=%d", validEnd, len(payloads))
	}
}

// TestJustifyFlag is the one request bit that is the codec's own: the core
// hands over the unrendered privilege either way, and only FlagJustify makes
// the server render it into the frame. (The contract's scenarios run over
// this transport in internal/server's conformance suite.)
func TestJustifyFlag(t *testing.T) {
	_, addr := startServer(t, service.Config{Registry: testRegistry(t)})
	c := testClient(t, addr, ClientOptions{Conns: 1})
	for _, flags := range []uint8{0, FlagJustify} {
		req := Request{Op: OpAuthorize, Flags: flags, Tenant: "t0", Cmds: []command.Command{workload.ChurnGrant(1, 8, 8)}}
		var resp Response
		if err := c.Do(&req, &resp); err != nil {
			t.Fatalf("authorize: %v", err)
		}
		if len(resp.Authz) != 1 || !resp.Authz[0].Allowed || (resp.Authz[0].Justification != "") != (flags == FlagJustify) {
			t.Fatalf("authorize with flags %d: %+v", flags, resp.Authz)
		}
	}
}

// TestMalformedPayloadKeepsConnection sends a CRC-valid frame whose body is
// garbage: the server answers bad_request on that request and the connection
// survives for the next one.
func TestMalformedPayloadKeepsConnection(t *testing.T) {
	reg := testRegistry(t)
	_, addr := startServer(t, service.Config{Registry: reg})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Garbage body (framing intact), then a valid ping, in one write.
	buf := appendFrame(nil, []byte{0xff, 0x01, 0x02})
	ping := Request{Op: OpPing, ID: 99}
	if buf, err = AppendRequest(buf, &ping); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var in []byte
	tmp := make([]byte, 4096)
	var resps []Response
	for len(resps) < 2 {
		n, err := conn.Read(tmp)
		if err != nil {
			t.Fatalf("read after %d responses: %v", len(resps), err)
		}
		in = append(in, tmp[:n]...)
		for {
			payload, n, ok, err := NextFrame(in)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			op := OpPing // first response is an error envelope; op is moot
			var resp Response
			if err := ParseResponse(payload, op, &resp); err != nil {
				t.Fatal(err)
			}
			resps = append(resps, resp)
			in = in[n:]
		}
	}
	if resps[0].Status != StatusBadRequest {
		t.Fatalf("garbage frame: status %v", resps[0].Status)
	}
	if resps[1].Status != StatusOK || resps[1].ID != 99 {
		t.Fatalf("ping after garbage: %+v", resps[1])
	}

	// A corrupt frame (bad CRC) is a transport lie: the connection drops.
	bad := appendFrame(nil, []byte("x"))
	bad[frameHeaderLen] ^= 0x01
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(tmp); err == nil {
		t.Fatal("connection survived a corrupt frame")
	}
}

// TestPipelinedMerge pins the batching payoff end-to-end: many requests
// written in one burst on one connection all answer correctly and in order.
func TestPipelinedMerge(t *testing.T) {
	reg := testRegistry(t)
	_, addr := startServer(t, service.Config{Registry: reg})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 64
	var buf []byte
	for i := 1; i <= n; i++ {
		req := Request{Op: OpAuthorize, ID: uint64(i), Tenant: "t0",
			Cmds: []command.Command{workload.ChurnGrant(i, 8, 8)}}
		if buf, err = AppendRequest(buf, &req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var in []byte
	tmp := make([]byte, 64<<10)
	next := uint64(1)
	for next <= n {
		rn, err := conn.Read(tmp)
		if err != nil {
			t.Fatalf("read at response %d: %v", next, err)
		}
		in = append(in, tmp[:rn]...)
		for {
			payload, fn, ok, err := NextFrame(in)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			var resp Response
			if err := ParseResponse(payload, OpAuthorize, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.ID != next {
				t.Fatalf("response %d arrived when %d expected", resp.ID, next)
			}
			if resp.Status != StatusOK || len(resp.Authz) != 1 || !resp.Authz[0].Allowed {
				t.Fatalf("response %d: %+v", resp.ID, resp)
			}
			next++
			in = in[fn:]
		}
	}
}

// TestConcurrentPipelinedLoad drives mixed ops from many goroutines over a
// small pool — the -race workout for the server's per-connection state and
// the client's pipeline correlation.
func TestConcurrentPipelinedLoad(t *testing.T) {
	reg := testRegistry(t)
	_, addr := startServer(t, service.Config{Registry: reg})
	c := testClient(t, addr, ClientOptions{Conns: 2})

	const goroutines = 8
	const opsEach = 60
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var req Request
			var resp Response
			for i := 0; i < opsEach; i++ {
				switch i % 4 {
				case 0:
					req = Request{Op: OpAuthorize, Tenant: "t0",
						Cmds: []command.Command{workload.ChurnGrant(g*opsEach+i, 8, 8)}}
				case 1:
					req = Request{Op: OpSubmit, Tenant: "t0",
						Cmds: []command.Command{workload.ChurnGrant(g*opsEach+i, 8, 8)}}
				case 2:
					req = Request{Op: OpPing}
				default:
					req = Request{Op: OpAuthorize, Tenant: "t1", Flags: FlagJustify,
						Cmds: []command.Command{workload.ChurnGrant(i, 8, 8)}}
				}
				if err := c.Do(&req, &resp); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCloseDrainsInFlight parks a request in a min_generation wait, closes
// the server mid-flight, and requires the response to arrive before EOF —
// the SIGTERM drain contract.
func TestCloseDrainsInFlight(t *testing.T) {
	reg := testRegistry(t)
	srv, addr := startServer(t, service.Config{Registry: reg, MinGenWait: 300 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := Request{Op: OpAuthorize, ID: 1, MinGen: 1 << 40, Tenant: "t0",
		Cmds: []command.Command{workload.ChurnGrant(0, 8, 8)}}
	buf, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	// Give the server a moment to read the frame and park in the wait.
	time.Sleep(50 * time.Millisecond)

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var in []byte
	tmp := make([]byte, 4096)
	for {
		n, rerr := conn.Read(tmp)
		in = append(in, tmp[:n]...)
		if payload, _, ok, ferr := NextFrame(in); ferr == nil && ok {
			var resp Response
			if err := ParseResponse(payload, OpAuthorize, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.ID != 1 || resp.Status != StatusStaleGeneration {
				t.Fatalf("drained response: %+v", resp)
			}
			break
		}
		if rerr != nil {
			t.Fatalf("connection died before the in-flight response: %v", rerr)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the drain")
	}
}

// TestDrainAllocs pins the steady-state allocation budget of the whole
// per-drain hot path — decode into the slab, service.Core.Do, encode from
// the core's response — which is everything a connection does minus the
// socket syscalls. After warmup (interner, vertex cache, scratch growth),
// no op on it may allocate per request: responses alias the connection's
// scratch, and a merged run hands each response a sub-slice of one buffer.
// It holds for a core without limits and for one with rbacd's defaults,
// whose budget and admission slots must not cost a request that never waits
// a timer, a context or a release func.
func TestDrainAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	reg := testRegistry(t)
	configs := map[string]service.Config{
		"no limits": {Registry: reg},
		"rbacd defaults": {Registry: reg, MaxRequestTime: 10 * time.Second, Admission: admission.New(admission.Config{
			Read:  admission.Limits{MaxInFlight: 256},
			Write: admission.Limits{MaxInFlight: 64, MaxQueue: 256},
		})},
	}
	for cfgName, cfg := range configs {
		drainAllocs(t, cfgName, reg, service.New(cfg))
	}
}

func drainAllocs(t *testing.T, cfgName string, reg *tenant.Registry, core *service.Core) {
	snap, release, err := reg.View("t0")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.Sessions().Table("t0").Create(snap, "u0", []string{"c0000"})
	release()
	if err != nil {
		t.Fatal(err)
	}

	const reqsPerDrain = 16
	authorize := func(i int) Request {
		return Request{Op: OpAuthorize, Tenant: "t0", Cmds: []command.Command{workload.ChurnGrant(i%4, 8, 8)}}
	}
	drains := map[string]func(i int) Request{
		// Same tenant, no token: the whole drain merges into one engine pass.
		"merged authorize run": authorize,
		// Alternating tenants: every request is its own group.
		"unmerged authorizes": func(i int) Request {
			req := authorize(i)
			req.Tenant = []string{"t0", "t1"}[i%2]
			return req
		},
		"checks": func(i int) Request {
			return Request{Op: OpCheck, Tenant: "t0", Session: sess.ID,
				Checks: []Check{{Action: "read", Object: "obj"}, {Action: "write", Object: "obj"}}}
		},
	}
	for name, mk := range drains {
		name = cfgName + "/" + name
		c := newConnState(NewServer(Config{Core: core}), nil)
		var frames []byte
		for i := 0; i < reqsPerDrain; i++ {
			req := mk(i)
			req.ID = uint64(i + 1)
			if frames, err = AppendRequest(frames, &req); err != nil {
				t.Fatal(err)
			}
		}
		drain := func() {
			c.in = append(c.in[:0], frames...)
			if err := c.consume(); err != nil {
				t.Fatal(err)
			}
			if len(c.out) == 0 {
				t.Fatal("no responses emitted")
			}
			c.out = c.out[:0]
		}
		for i := 0; i < 100; i++ {
			drain() // warm interner, vertex cache, scratch slices, engine caches
		}
		// The warm drain answered every request OK.
		c.in = append(c.in[:0], frames...)
		c.consume()
		_, payloads := decodeFrames(c.out)
		c.out = c.out[:0]
		if len(payloads) != reqsPerDrain {
			t.Fatalf("%s: %d responses for %d requests", name, len(payloads), reqsPerDrain)
		}
		for i, payload := range payloads {
			var resp Response
			if err := ParseResponse(payload, mk(i).Op, &resp); err != nil || resp.Status != StatusOK || resp.ID != uint64(i+1) {
				t.Fatalf("%s: response %d: %+v (%v)", name, i, resp, err)
			}
		}
		perDrain := testing.AllocsPerRun(200, drain)
		t.Logf("%s: %.1f allocs per drain of %d", name, perDrain, reqsPerDrain)
		if perDrain >= 1 {
			t.Errorf("%s: hot path allocates %.2f per request (want 0)", name, perDrain/reqsPerDrain)
		}
	}
}

// TestVertexDepthBound: a privilege nested maxVertexDepth connectives deep
// decodes, one level more is malformed — with the interner and without, on
// first sight and on a cache hit.
func TestVertexDepthBound(t *testing.T) {
	nest := func(depth int) model.Vertex {
		var v model.Vertex = model.Role("r")
		for i := 0; i < depth; i++ {
			v = model.Grant(model.Role("a"), v)
		}
		return v
	}
	for _, in := range interners() {
		for _, depth := range []int{maxVertexDepth, maxVertexDepth + 1, maxVertexDepth, maxVertexDepth + 1} {
			req := Request{Op: OpSubmit, Tenant: "t0", Cmds: []command.Command{command.Grant("so", model.Role("hr"), nest(depth))}}
			buf, err := AppendRequest(nil, &req)
			if err != nil {
				t.Fatal(err)
			}
			payload, _, _, _ := NextFrame(buf)
			var got Request
			if err := ParseRequest(payload, &got, in); (err != nil) != (depth > maxVertexDepth) {
				t.Fatalf("depth %d (interner %v): %v", depth, in != nil, err)
			}
		}
	}
}

// TestHTTPOnlyOpcodesAreMalformed: explain, audit and policy upload are core
// ops the binary plane does not carry — their opcodes parse as malformed,
// like any opcode past OpPing.
func TestHTTPOnlyOpcodesAreMalformed(t *testing.T) {
	for _, op := range []Opcode{service.OpExplain, service.OpAudit, service.OpInstallPolicy, service.OpInstallPolicy + 1} {
		buf, err := AppendRequest(nil, &Request{Op: OpPing, Tenant: "t0"})
		if err != nil {
			t.Fatal(err)
		}
		payload, _, _, _ := NextFrame(buf)
		payload[0] = byte(op)
		var got Request
		if err := ParseRequest(payload, &got, nil); !errors.Is(err, ErrMalformed) {
			t.Fatalf("opcode %d: %v, want ErrMalformed", op, err)
		}
	}
}
