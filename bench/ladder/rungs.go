package ladder

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"adminrefine/bench/loadgen"
	"adminrefine/bench/target"
	"adminrefine/bench/workload"
	"adminrefine/internal/admission"
	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/placement"
	"adminrefine/internal/policy"
	"adminrefine/internal/session"
	"adminrefine/internal/storage"
	"adminrefine/internal/wire"
)

// Config is one traced run's input: the workload, its seeded stream, and
// the ops after the warm-up — the same ops the real daemon is offered.
type Config struct {
	Workload workload.Workload
	Stream   *loadgen.Stream
	// Warm are the stream's warm-up ops, replayed unrecorded before the
	// rungs; Ops the ops after them.
	Warm []loadgen.Op
	Ops  []loadgen.Op
	// Dir receives the in-process nodes' data; the caller removes it.
	Dir string
	// N is how many ops each serial rung replays; Paced how long the paced
	// in-process rung offers the workload's frozen rate.
	N     int
	Paced time.Duration
}

// OpsNeeded is how many ops past the warm-up a traced run consumes: five
// serial slices and the paced rung's schedule.
func OpsNeeded(w workload.Workload, n int, paced time.Duration) int {
	return 5*n + int(w.Rate*paced.Seconds()) + 1
}

// KindLadder is one op kind's median latency as a sum of layer self times,
// innermost layer first. The caller closes it with the real daemon's median.
type KindLadder struct {
	Kind  loadgen.Kind
	Steps []Step
	// Top is the top rung: the paced in-process median.
	Top time.Duration
}

// Output is what a traced run produced.
type Output struct {
	// Metrics are the per-layer metrics the ladder measures, by name.
	Metrics map[string]float64
	Ladders []KindLadder
	Tracer  *Tracer
}

// run carries one traced run's state across its rungs.
type run struct {
	cfg Config
	w   workload.Workload
	s   *loadgen.Stream
	tr  *Tracer
	// dur collects span durations by span name plus op kind.
	dur map[string][]time.Duration
	// quiet suppresses spans while a rung replays the warm-up ops.
	quiet bool
	// submitSelf is the tenant rung's median submit with the storage spans
	// beneath it taken out.
	submitSelf time.Duration
	out        *Output
}

func key(name string, k loadgen.Kind) string { return name + "/" + k.String() }

// span times call as a span named name caused by op i of kind k. While the
// run is warming a rung up (quiet), the call is made and nothing recorded.
func (r *run) span(name string, i int, k loadgen.Kind, call func()) time.Duration {
	if r.quiet {
		call()
		return 0
	}
	id := r.tr.Begin(name, i)
	call()
	d := r.tr.End(id)
	r.dur[key(name, k)] = append(r.dur[key(name, k)], d)
	return d
}

func (r *run) med(name string, k loadgen.Kind) time.Duration { return median(r.dur[key(name, k)]) }

// medAll is the median of a span name's durations over every op kind.
func (r *run) medAll(name string) time.Duration {
	var all []time.Duration
	for k := loadgen.Kind(0); k < loadgen.NumKinds; k++ {
		all = append(all, r.dur[key(name, k)]...)
	}
	return median(all)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Run replays the traced rungs and returns the per-layer metrics, the
// per-kind ladders and the spans.
func Run(cfg Config) (*Output, error) {
	r := &run{cfg: cfg, w: cfg.Workload, s: cfg.Stream, tr: NewTracer(), dur: map[string][]time.Duration{}}
	r.out = &Output{Metrics: map[string]float64{}, Tracer: r.tr}
	n := cfg.N
	if err := r.engineRung(cfg.Warm, cfg.Ops[:n]); err != nil {
		return nil, fmt.Errorf("engine rung: %w", err)
	}
	r.codecRung(cfg.Ops[:n])

	c, err := startCluster(filepath.Join(cfg.Dir, "ladder"), r.w)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			c.close()
		}
	}()
	if err := r.warm(c); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := r.tenantRung(c, cfg.Ops[:n]); err != nil {
		return nil, fmt.Errorf("tenant rung: %w", err)
	}
	if err := r.handlerRung(c, cfg.Ops[n:2*n]); err != nil {
		return nil, fmt.Errorf("handler rung: %w", err)
	}
	if err := r.loopbackRungs(c, cfg.Ops[2*n:]); err != nil {
		return nil, fmt.Errorf("loopback rungs: %w", err)
	}
	// Closing the registry compacts and closes every tenant, as evicting one
	// does; the storage calls then run on the hottest tenant's directory.
	c.close()
	closed = true
	if err := r.storageDirect(); err != nil {
		return nil, fmt.Errorf("storage rung: %w", err)
	}
	r.ladders()
	return r.out, nil
}

// engineRung is R1: the innermost layers called directly — the engine's
// snapshot, batch authorize and submit, the command interner, the session
// table, admission and placement — one span per call.
func (r *run) engineRung(warm, ops []loadgen.Op) error {
	type tenantState struct {
		eng *engine.Engine
		tbl *session.Table
		sid uint64
	}
	tenants := map[int32]*tenantState{}
	// With a residency budget the daemon keeps MaxResident tenants per shard
	// and rebuilds an evicted tenant's engine, caches cold, on its next
	// touch. The rung keeps as many engines and drops the least recently
	// used, so its decisions meet the cache state the daemon's do.
	budget := r.w.MaxResident * registryShards
	var lru []int32
	touch := func(tenant int32) {
		if budget == 0 {
			return
		}
		for k, t := range lru {
			if t == tenant {
				lru = append(lru[:k], lru[k+1:]...)
				break
			}
		}
		lru = append(lru, tenant)
		if len(lru) > budget {
			delete(tenants, lru[0])
			lru = lru[1:]
		}
	}
	interner := command.NewInterner()
	adm := admission.New(admission.Config{
		Read:  admission.Limits{MaxInFlight: maxInflightReads},
		Write: admission.Limits{MaxInFlight: maxInflightWrites, MaxQueue: writeQueue},
	})
	pmap, err := placement.New(1, []placement.Node{{ID: "n1", Addr: "http://n1"}, {ID: "n2", Addr: "http://n2"}, {ID: "n3", Addr: "http://n3"}})
	if err != nil {
		return err
	}
	ctx := context.Background()
	var out []engine.AuthzResult
	var allow, deny []command.Command
	probeAllow, probeDeny := model.Privilege(model.Perm("read", "obj")), model.Privilege(model.Perm("write", "obj"))

	// The warm-up ops come first, unrecorded, so the engines' caches are in
	// the state the daemon's are in when its steady phase begins.
	r.quiet = true
	all := append(append([]loadgen.Op(nil), warm...), ops...)
	for j := range all {
		op, i := &all[j], j-len(warm)
		r.quiet = i < 0
		ts := tenants[op.Tenant]
		if ts == nil {
			pol := fixture(r.w)
			first, _ := r.s.RYW(op)
			ts = &tenantState{}
			// Building an engine includes its first decision, which
			// materialises the closure the later ones reuse. Engines are
			// built on first touch, mostly during warm-up, and always timed.
			r.quiet = false
			r.span("engine.New", i, op.Kind, func() {
				ts.eng = engine.New(pol, engine.Refined)
				snap := ts.eng.Snapshot()
				snap.AuthorizeBatchInto(first, nil)
				snap.Close()
			})
			r.quiet = i < 0
			ts.tbl = session.NewTable(session.Options{})
			snap := ts.eng.Snapshot()
			sess, err := ts.tbl.Create(snap, loadgen.SessionUser(), []string{loadgen.SessionRole()})
			snap.Close()
			if err != nil {
				return err
			}
			ts.sid = sess.ID
			tenants[op.Tenant] = ts
		}
		touch(op.Tenant)
		name := loadgen.TenantName(int(op.Tenant))
		authorize := func(kind loadgen.Kind, cmds []command.Command, want []bool) error {
			allow, deny = allow[:0], deny[:0]
			for j, c := range cmds {
				if want[j] {
					allow = append(allow, c)
				} else {
					deny = append(deny, c)
				}
			}
			var bad error
			r.span("engine", i, kind, func() {
				var snap *engine.Snapshot
				r.span("engine.Snapshot", i, kind, func() { snap = ts.eng.Snapshot() })
				for _, part := range []struct {
					name string
					cmds []command.Command
					ok   bool
				}{{"engine.AuthorizeBatchInto.allow", allow, true}, {"engine.AuthorizeBatchInto.deny", deny, false}} {
					if len(part.cmds) == 0 {
						continue
					}
					d := r.span(part.name, i, kind, func() { out = snap.AuthorizeBatchInto(part.cmds, out[:0]) })
					if !r.quiet {
						r.dur[part.name+"/cmd"] = append(r.dur[part.name+"/cmd"], d/time.Duration(len(part.cmds)))
					}
					for j := range out {
						if out[j].OK != part.ok {
							bad = fmt.Errorf("engine decided %v for %v, generator expects %v", out[j].OK, part.cmds[j], part.ok)
						}
					}
				}
				snap.Close()
			})
			return bad
		}
		switch op.Kind {
		case loadgen.Authorize:
			cmds, want := r.s.Cmds(op)
			if err := authorize(loadgen.Authorize, cmds, want); err != nil {
				return err
			}
			before, _ := interner.Len()
			d := r.span("command.Interner.Command", i, op.Kind, func() {
				for _, c := range cmds {
					interner.Command(c)
				}
			})
			after, _ := interner.Len()
			if !r.quiet {
				r.dur["command.Interner.Command/cmd"] = append(r.dur["command.Interner.Command/cmd"], d/time.Duration(len(cmds)))
				r.out.Metrics["command.interned_per_kop"] += float64(after - before)
			}
		case loadgen.Check:
			probe, want := probeAllow, true
			if _, ok := r.s.Probe(op); !ok {
				probe, want = probeDeny, false
			}
			var got bool
			var err error
			r.span("session", i, op.Kind, func() {
				snap := ts.eng.Snapshot()
				r.span("session.Table.Check", i, op.Kind, func() { got, err = ts.tbl.Check(snap, ts.sid, probe) })
				snap.Close()
			})
			if err != nil || got != want {
				return fmt.Errorf("session check: got %v (%v), generator expects %v", got, err, want)
			}
		case loadgen.Submit:
			cmds, _ := r.s.Cmds(op)
			var res []command.StepResult
			var err error
			r.span("engine", i, op.Kind, func() {
				r.span("engine.SubmitBatch", i, op.Kind, func() { res, err = ts.eng.SubmitBatch(cmds, nil) })
			})
			if err != nil || len(res) != 1 || res[0].Outcome != command.Applied {
				return fmt.Errorf("engine submit: %v %v", res, err)
			}
			rc, rw := r.s.RYW(op)
			if err := authorize(loadgen.RYW, rc, rw); err != nil {
				return err
			}
		}
		class := admission.Read
		if op.Kind == loadgen.Submit {
			class = admission.Write
		}
		var release func()
		r.span("admission.Controller.Acquire", i, op.Kind, func() { release, _ = adm.Acquire(ctx, class) })
		release()
		r.span("placement.Map.Owner", i, op.Kind, func() { pmap.Owner(name) })
	}

	m := r.out.Metrics
	m["engine.authorize_ns_per_cmd"] = float64(median(r.dur["engine.AuthorizeBatchInto.allow/cmd"]))
	m["engine.deny_ns_per_cmd"] = float64(median(r.dur["engine.AuthorizeBatchInto.deny/cmd"]))
	m["engine.submit_us"] = us(r.med("engine.SubmitBatch", loadgen.Submit))
	m["engine.snapshot_ns"] = float64(r.med("engine.Snapshot", loadgen.Authorize))
	m["engine.build_us"] = us(r.medAll("engine.New"))
	m["command.fingerprint_ns"] = float64(median(r.dur["command.Interner.Command/cmd"]))
	m["command.interned_per_kop"] *= 1000 / float64(len(ops))
	m["session.check_ns"] = float64(r.med("session.Table.Check", loadgen.Check))
	m["admission.acquire_ns"] = float64(r.medAll("admission.Controller.Acquire"))
	m["placement.owner_ns"] = float64(r.medAll("placement.Map.Owner"))
	return nil
}

// warm replays the warm-up ops closed-loop through the workload's own plane,
// as a run's set-up does against the real daemon.
func (r *run) warm(c *cluster) error {
	conc := r.w.Concurrency()
	t, closer, err := r.planeTarget(c, r.w.HTTP, conc)
	if err != nil {
		return err
	}
	defer closer()
	res := loadgen.RunClosed(conc.SatWorkers, time.Minute, r.cfg.Warm, make(loadgen.Tokens, r.w.Spec.Tenants), !r.w.Follower, t)
	if res.Fail.Total() > 0 {
		return fmt.Errorf("%d of %d requests failed: %v", res.Fail.Total(), res.Attempted, res.FirstErr)
	}
	return nil
}

// codecRung is the wire half of R3: the four codec functions on every op's
// request and a response of the right shape.
func (r *run) codecRung(ops []loadgen.Op) {
	in := wire.NewInterner()
	var req, parsed wire.Request
	var resp, back wire.Response
	var frame, rframe []byte
	var bytesTotal int64
	var parseMallocs uint64
	var ms0, ms1 runtime.MemStats
	for i := range ops {
		op := &ops[i]
		req.Reset()
		resp.Reset()
		req.Tenant = loadgen.TenantName(int(op.Tenant))
		switch op.Kind {
		case loadgen.Submit:
			cmds, _ := r.s.Cmds(op)
			req.Op = wire.OpSubmit
			req.Cmds = append(req.Cmds, cmds...)
			resp.Steps = append(resp.Steps, wire.StepOutcome{Outcome: wire.OutcomeApplied})
		case loadgen.Check:
			probe, ok := r.s.Probe(op)
			req.Op = wire.OpCheck
			req.Session = 1
			req.Checks = append(req.Checks, wire.Check{Action: probe.Action, Object: probe.Object})
			resp.Allowed = append(resp.Allowed, ok)
		default:
			cmds, want := r.s.Cmds(op)
			req.Op = wire.OpAuthorize
			req.Cmds = append(req.Cmds, cmds...)
			for _, ok := range want {
				resp.Authz = append(resp.Authz, wire.AuthzResult{Allowed: ok})
			}
		}
		req.ID, resp.ID = uint64(i+1), uint64(i+1)
		r.span("wire", i, op.Kind, func() {
			r.span("wire.AppendRequest", i, op.Kind, func() { frame, _ = wire.AppendRequest(frame[:0], &req) })
			payload, _, _, _ := wire.NextFrame(frame)
			runtime.ReadMemStats(&ms0)
			r.span("wire.ParseRequest", i, op.Kind, func() { wire.ParseRequest(payload, &parsed, in) })
			runtime.ReadMemStats(&ms1)
			parseMallocs += ms1.Mallocs - ms0.Mallocs
			r.span("wire.AppendResponse", i, op.Kind, func() { rframe, _ = wire.AppendResponse(rframe[:0], &resp) })
			rpayload, _, _, _ := wire.NextFrame(rframe)
			r.span("wire.ParseResponse", i, op.Kind, func() { wire.ParseResponse(rpayload, req.Op, &back) })
		})
		bytesTotal += int64(len(frame) + len(rframe))
	}
	m := r.out.Metrics
	m["wire.encode_req_ns"] = float64(r.medAll("wire.AppendRequest"))
	m["wire.parse_req_ns"] = float64(r.medAll("wire.ParseRequest"))
	m["wire.encode_resp_ns"] = float64(r.medAll("wire.AppendResponse"))
	m["wire.parse_resp_ns"] = float64(r.medAll("wire.ParseResponse"))
	m["wire.bytes_per_op"] = float64(bytesTotal) / float64(len(ops))
	m["wire.parse_allocs_per_op"] = float64(parseMallocs) / float64(len(ops))
}

// codec is one kind's median codec cost: the four calls summed.
func (r *run) codec(k loadgen.Kind) time.Duration {
	if k == loadgen.RYW {
		k = loadgen.Authorize
	}
	return r.med("wire.AppendRequest", k) + r.med("wire.ParseRequest", k) +
		r.med("wire.AppendResponse", k) + r.med("wire.ParseResponse", k)
}

// tenantRung is R2: the registry's batch authorize, view, submit and
// generation wait, over a registry whose WAL file is wrapped, so every
// write and fsync is a child span of the submit that caused it.
func (r *run) tenantRung(c *cluster, ops []loadgen.Op) error {
	prim, read := c.primary.reg, c.readNode().reg
	c.primary.files.reset(r.tr)
	defer c.primary.files.reset(nil)
	ctx := context.Background()
	var out []engine.AuthzResult
	var submits []int32
	var coldCalls, calls int
	for i := range ops {
		op := &ops[i]
		name := loadgen.TenantName(int(op.Tenant))
		authorize := func(kind loadgen.Kind, cmds []command.Command, want []bool) error {
			var err error
			opens := c.readNode().files.opened()
			r.span("tenant.AuthorizeBatchInto", i, kind, func() { out, _, err = read.AuthorizeBatchInto(name, cmds, out[:0]) })
			calls++
			if c.readNode().files.opened() != opens {
				coldCalls++
			}
			if err != nil {
				return err
			}
			for j := range out {
				if out[j].OK != want[j] {
					return fmt.Errorf("tenant %s decided %v for %v, generator expects %v", name, out[j].OK, cmds[j], want[j])
				}
			}
			return nil
		}
		switch op.Kind {
		case loadgen.Authorize:
			cmds, want := r.s.Cmds(op)
			if err := authorize(loadgen.Authorize, cmds, want); err != nil {
				return err
			}
		case loadgen.Check:
			var err error
			r.span("tenant.View", i, op.Kind, func() {
				var release func()
				if _, release, err = read.View(name); err == nil {
					release()
				}
			})
			if err != nil {
				return err
			}
		case loadgen.Submit:
			cmds, _ := r.s.Cmds(op)
			var res []command.StepResult
			var gen uint64
			var err error
			id := int32(len(r.tr.Spans))
			r.span("tenant.SubmitBatchCtx", i, op.Kind, func() { res, gen, err = prim.SubmitBatchCtx(ctx, name, cmds) })
			submits = append(submits, id)
			if err != nil || len(res) != 1 || res[0].Outcome != command.Applied {
				return fmt.Errorf("tenant submit %s: %v %v", name, res, err)
			}
			var ok bool
			r.span("tenant.WaitGenerationCtx", i, loadgen.RYW, func() { _, ok, err = read.WaitGenerationCtx(ctx, name, gen, minGenWait) })
			if err != nil || !ok {
				return fmt.Errorf("tenant %s never reached generation %d: %v", name, gen, err)
			}
			rc, rw := r.s.RYW(op)
			if err := authorize(loadgen.RYW, rc, rw); err != nil {
				return err
			}
		}
	}

	// A submit's self time is its span minus the storage spans beneath it:
	// the engine's work plus the registry's own.
	self := SelfTimes(r.tr.Spans)
	var submitSelf []time.Duration
	for _, id := range submits {
		submitSelf = append(submitSelf, self[id])
	}
	r.submitSelf = median(submitSelf)
	batch := time.Duration(r.w.Spec.Batch)
	m := r.out.Metrics
	m["tenant.authorize_self_ns_per_cmd"] = float64(max(0, r.med("tenant.AuthorizeBatchInto", loadgen.Authorize)-r.med("engine", loadgen.Authorize)) / batch)
	m["tenant.submit_us"] = us(r.med("tenant.SubmitBatchCtx", loadgen.Submit))
	m["tenant.submit_self_us"] = us(max(0, r.submitSelf-r.med("engine", loadgen.Submit)))
	m["tenant.waitgen_us"] = us(r.med("tenant.WaitGenerationCtx", loadgen.RYW))
	m["tenant.resident_hit_ratio"] = 1 - float64(coldCalls)/float64(max(1, calls))
	// Every cold open beyond the residency budget evicts a tenant.
	m["tenant.evictions_per_kop"] = 0
	if r.w.MaxResident > 0 {
		m["tenant.evictions_per_kop"] = 1000 * float64(coldCalls) / float64(len(ops))
	}

	// Cold open, measured the same way on every workload: evict a tenant,
	// then time the Stats call that reopens it from its snapshot and WAL.
	var cold []time.Duration
	for i := 0; i < min(8, r.w.Spec.Tenants); i++ {
		name := loadgen.TenantName(i)
		if !read.Evict(name) {
			if _, err := read.Stats(name); err != nil { // not resident: open it first
				return err
			}
			read.Evict(name)
		}
		var err error
		cold = append(cold, r.span("tenant.Stats.cold", -1, loadgen.Authorize, func() { _, err = read.Stats(name) }))
		if err != nil {
			return err
		}
	}
	m["tenant.cold_open_ms"] = ms(median(cold))
	return nil
}

// opened reports how many WAL files have been opened so far.
func (f *files) opened() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opens
}

// discard is a ResponseWriter that keeps the status and counts the body, so
// the handler rung measures the handler, not a recorder.
type discard struct {
	header http.Header
	status int
	n      int64
	body   bytes.Buffer
}

func (d *discard) Header() http.Header { return d.header }
func (d *discard) WriteHeader(s int)   { d.status = s }
func (d *discard) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.body.Write(p)
}

// handlerRung is the HTTP half of R3: server.Server.ServeHTTP called
// directly, against an in-memory response writer, with pre-built requests.
func (r *run) handlerRung(c *cluster, ops []loadgen.Op) error {
	// Sessions for the check ops, on the read node.
	sessions, err := r.sessions(c, true)
	if err != nil {
		return err
	}
	type call struct {
		req  *http.Request
		kind loadgen.Kind
		node *node
		n    int
	}
	build := func(node *node, kind loadgen.Kind, tenant int32, verb string, body any) (call, error) {
		buf, err := json.Marshal(body)
		if err != nil {
			return call{}, err
		}
		req, err := http.NewRequest(http.MethodPost, target.TenantURL(node.http, int(tenant), verb), bytes.NewReader(buf))
		if err != nil {
			return call{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		return call{req: req, kind: kind, node: node, n: len(buf)}, nil
	}
	w := &discard{header: http.Header{}}
	var mallocs uint64
	var bytesTotal int64
	var served int
	var ms0, ms1 runtime.MemStats
	serve := func(i int, cl call) ([]byte, error) {
		w.status, w.n = 0, 0
		w.body.Reset()
		clear(w.header)
		runtime.ReadMemStats(&ms0)
		r.span("server.ServeHTTP", i, cl.kind, func() { cl.node.srv.ServeHTTP(w, cl.req) })
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytesTotal += int64(cl.n) + w.n
		served++
		if w.status != 0 && w.status != http.StatusOK {
			return nil, fmt.Errorf("handler answered %d: %s", w.status, w.body.Bytes())
		}
		return w.body.Bytes(), nil
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case loadgen.Submit:
			cmds, _ := r.s.Cmds(op)
			cl, err := build(c.primary, loadgen.Submit, op.Tenant, "submit", target.JSONBatch(cmds, 0))
			if err != nil {
				return err
			}
			raw, err := serve(i, cl)
			if err != nil {
				return err
			}
			var reply struct {
				Generation uint64 `json:"generation"`
			}
			if err := json.Unmarshal(raw, &reply); err != nil {
				return err
			}
			rc, _ := r.s.RYW(op)
			if cl, err = build(c.readNode(), loadgen.RYW, op.Tenant, "authorize", target.JSONBatch(rc, reply.Generation)); err != nil {
				return err
			}
			if _, err := serve(i, cl); err != nil {
				return err
			}
		case loadgen.Check:
			probe, _ := r.s.Probe(op)
			cl, err := build(c.readNode(), loadgen.Check, op.Tenant, "check", target.JSONCheck(sessions[op.Tenant], probe, 0))
			if err != nil {
				return err
			}
			if _, err := serve(i, cl); err != nil {
				return err
			}
		default:
			cmds, _ := r.s.Cmds(op)
			cl, err := build(c.readNode(), loadgen.Authorize, op.Tenant, "authorize", target.JSONBatch(cmds, 0))
			if err != nil {
				return err
			}
			if _, err := serve(i, cl); err != nil {
				return err
			}
		}
	}
	m := r.out.Metrics
	m["server.handler_us"] = us(r.medAll("server.ServeHTTP"))
	m["server.handler_self_us"] = us(max(0, r.med("server.ServeHTTP", loadgen.Authorize)-r.med("tenant.AuthorizeBatchInto", loadgen.Authorize)))
	m["server.handler_allocs_per_op"] = float64(mallocs) / float64(max(1, served))
	m["server.bytes_per_op"] = float64(bytesTotal) / float64(max(1, served))
	return nil
}

// sessions opens one check session per tenant on the read node over HTTP.
func (r *run) sessions(c *cluster, need bool) ([]uint64, error) {
	ids := make([]uint64, r.w.Spec.Tenants)
	if !need || r.w.Spec.CheckFrac == 0 {
		return ids, nil
	}
	t := &target.HTTP{ReadBase: c.readNode().http, Client: target.NewHTTPClient(1)}
	defer t.Client.CloseIdleConnections()
	for i := range ids {
		id, err := t.CreateSession(i)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// planeTarget connects the benchmark's own target for one plane to the
// in-process nodes.
func (r *run) planeTarget(c *cluster, httpPlane bool, conc workload.Concurrency) (loadgen.Target, func(), error) {
	if httpPlane {
		t := &target.HTTP{Stream: r.s, ReadBase: c.readNode().http, WriteBase: c.primary.http, Client: target.NewHTTPClient(conc.ReadConns + conc.WriteConns)}
		ids, err := r.sessions(c, true)
		if err != nil {
			return nil, nil, err
		}
		t.Sessions = ids
		return t, t.Client.CloseIdleConnections, nil
	}
	read, write, err := target.DialWire(c.readNode().wire, c.primary.wire, conc.ReadConns, conc.WriteConns)
	if err != nil {
		return nil, nil, err
	}
	t := &target.Wire{Stream: r.s, Read: read, Write: write, Sessions: make([]uint64, r.w.Spec.Tenants)}
	closer := func() { read.Close(); write.Close() }
	if r.w.Spec.CheckFrac > 0 {
		for i := range t.Sessions {
			if t.Sessions[i], err = t.CreateSession(i); err != nil {
				closer()
				return nil, nil, err
			}
		}
	}
	return t, closer, nil
}

// serial replays ops one at a time through a target: the unloaded round
// trip. With spans off it records nothing but the durations it returns.
func (r *run) serial(t loadgen.Target, name string, ops []loadgen.Op, spans bool) (map[loadgen.Kind][]time.Duration, error) {
	got := map[loadgen.Kind][]time.Duration{}
	timed := func(i int, k loadgen.Kind, call func() error) error {
		var err error
		var d time.Duration
		if spans {
			d = r.span(name, i, k, func() { err = call() })
		} else {
			start := time.Now()
			err = call()
			d = time.Since(start)
		}
		got[k] = append(got[k], d)
		return err
	}
	for i := range ops {
		op := &ops[i]
		var gen uint64
		if err := timed(i, op.Kind, func() (err error) { gen, err = t.Do(op, false, 0); return }); err != nil {
			return nil, err
		}
		if op.Kind == loadgen.Submit {
			if err := timed(i, loadgen.RYW, func() (err error) { _, err = t.Do(op, true, gen); return }); err != nil {
				return nil, err
			}
		}
	}
	return got, nil
}

func flatten(m map[loadgen.Kind][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, ds := range m {
		all = append(all, ds...)
	}
	return all
}

// loopbackRungs are R4: the serial round trip to the in-process servers on
// both planes (spans on, then off on the workload's own plane for the
// tracing overhead), and the paced rung — the workload's frozen rate offered
// by the same open-loop generator the real daemon is measured with.
func (r *run) loopbackRungs(c *cluster, ops []loadgen.Op) error {
	n := r.cfg.N
	conc := r.w.Concurrency()
	m := r.out.Metrics
	own, closeOwn, err := r.planeTarget(c, r.w.HTTP, conc)
	if err != nil {
		return err
	}
	defer closeOwn()
	other, closeOther, err := r.planeTarget(c, !r.w.HTTP, conc)
	if err != nil {
		return err
	}
	defer closeOther()
	names := map[bool]string{false: "wire.roundtrip", true: "http.roundtrip"}

	// Spans on and off alternate in short runs of ops, so drift in the box's
	// state lands on both sides of the overhead estimate.
	on, off := map[loadgen.Kind][]time.Duration{}, map[loadgen.Kind][]time.Duration{}
	const stride = 50
	for lo := 0; lo < 2*n; lo += stride {
		side, spans := on, lo/stride%2 == 0
		if !spans {
			side = off
		}
		got, err := r.serial(own, names[r.w.HTTP], ops[lo:min(lo+stride, 2*n)], spans)
		if err != nil {
			return err
		}
		for k, ds := range got {
			side[k] = append(side[k], ds...)
		}
	}
	if base := median(flatten(off)); base > 0 {
		m["trace.overhead_frac"] = float64(median(flatten(on))-base) / float64(base)
	}
	if _, err := r.serial(other, names[!r.w.HTTP], ops[2*n:3*n], true); err != nil {
		return err
	}
	a := loadgen.Authorize
	m["wire.loopback_rtt_us"] = us(r.medAll("wire.roundtrip"))
	m["wire.transport_self_us"] = us(max(0, r.med("wire.roundtrip", a)-r.med("tenant.AuthorizeBatchInto", a)-r.codec(a)-r.med("admission.Controller.Acquire", a)))
	m["server.loopback_rtt_us"] = us(r.medAll("http.roundtrip"))
	m["server.transport_self_us"] = us(max(0, r.med("http.roundtrip", a)-r.med("server.ServeHTTP", a)))

	// The paced rung. The WAL recorder counts the commit groups the offered
	// load forms; nothing is traced, the spans would race.
	c.primary.files.reset(nil)
	tokens := make(loadgen.Tokens, r.w.Spec.Tenants)
	paced := loadgen.RunOpen(loadgen.OpenConfig{
		Rate: r.w.Rate, Windows: 1, Window: r.cfg.Paced,
		ReadIssuers: conc.ReadIssuers, WriteIssuers: conc.WriteIssuers,
		SameNode: !r.w.Follower, Drain: 5 * time.Second,
	}, ops[3*n:], tokens, own)
	if paced.Fail.Total() > 0 {
		return fmt.Errorf("paced rung: %d of %d requests failed: %v", paced.Fail.Total(), paced.Attempted, paced.FirstErr)
	}
	for k := loadgen.Kind(0); k < loadgen.NumKinds; k++ {
		r.dur[key("paced", k)] = []time.Duration{time.Duration(paced.Windows[0][k].Quantile(0.5))}
	}
	reads := new(loadgen.Histogram)
	reads.Merge(paced.Windows[0][loadgen.Authorize])
	reads.Merge(paced.Windows[0][loadgen.Check])
	var serialReads []time.Duration
	serialReads = append(append(serialReads, on[loadgen.Authorize]...), on[loadgen.Check]...)
	m["loadgen.paced_self_us"] = us(max(0, time.Duration(reads.Quantile(0.5))-median(serialReads)))

	f := c.primary.files
	f.mu.Lock()
	defer f.mu.Unlock()
	submits := float64(max(1, paced.Windows[0][loadgen.Submit].Count()))
	m["storage.write_us"] = us(median(f.writeNS))
	m["storage.fsync_p50_us"] = us(median(f.syncNS))
	m["storage.fsync_p99_us"] = us(quantile(f.syncNS, 0.99))
	m["storage.fsyncs_per_submit"] = float64(len(f.syncNS)) / submits
	m["storage.wal_bytes_per_submit"] = float64(f.bytes) / submits
	m["storage.compactions"] = float64(f.truncs)
	m["tenant.group_size"] = submits / float64(max(1, len(f.syncNS)))
	return nil
}

// storageDirect times the two storage calls no file wrapper can see whole —
// a cold Open of a tenant directory and a Compact of its policy — by making
// them directly on the hottest tenant's directory once its registry is
// closed.
func (r *run) storageDirect() error {
	dir := filepath.Join(r.cfg.Dir, "ladder", "primary", loadgen.TenantName(0))
	var opens, compacts []time.Duration
	for i := 0; i < 5; i++ {
		var st *storage.Store
		var pol *policy.Policy
		var err error
		opens = append(opens, r.span("storage.Open", -1, loadgen.Submit, func() {
			st, pol, _, err = storage.Open(dir, storage.Options{Sync: true})
		}))
		if err != nil {
			return err
		}
		compacts = append(compacts, r.span("storage.Store.Compact", -1, loadgen.Submit, func() { err = st.Compact(pol) }))
		st.Close()
		if err != nil {
			return err
		}
	}
	r.out.Metrics["storage.open_ms"] = ms(median(opens))
	r.out.Metrics["storage.compact_ms"] = ms(median(compacts))
	return nil
}

// ladders assembles each kind's rungs, innermost first, into self times.
func (r *run) ladders() {
	own, handlerName := "wire.roundtrip", "wire"
	if r.w.HTTP {
		own, handlerName = "http.roundtrip", "server"
	}
	handler := func(k loadgen.Kind, tenantRung time.Duration) time.Duration {
		if r.w.HTTP {
			return r.med("server.ServeHTTP", k)
		}
		return tenantRung + r.codec(k) + r.med("admission.Controller.Acquire", loadgen.Authorize)
	}
	for k := loadgen.Kind(0); k < loadgen.NumKinds; k++ {
		top := r.med("paced", k)
		if top == 0 {
			continue
		}
		var rungs []Rung
		switch k {
		case loadgen.Authorize:
			t := r.med("tenant.AuthorizeBatchInto", k)
			rungs = []Rung{{"engine", r.med("engine", k)}, {"tenant", t}, {handlerName, handler(k, t)}}
		case loadgen.Check:
			s := r.med("session", k)
			t := s + r.med("tenant.View", k)
			rungs = []Rung{{"session", s}, {"tenant", t}, {handlerName, handler(k, t)}}
		case loadgen.Submit:
			// The tenant span minus its self time is what storage took.
			e := r.med("engine", k)
			t := r.med("tenant.SubmitBatchCtx", k)
			rungs = []Rung{{"engine", e}, {"storage", e + t - r.submitSelf}, {"tenant", t}, {handlerName, handler(k, t)}}
		case loadgen.RYW:
			// The generation wait is the registry's own on a single node; on
			// a follower it is the time the write takes to replicate.
			a := r.med("tenant.AuthorizeBatchInto", k)
			t := a + r.med("tenant.WaitGenerationCtx", k)
			rungs = []Rung{{"engine", r.med("engine", k)}, {"tenant", t}, {handlerName, handler(k, t)}}
			if r.w.Follower {
				rungs = []Rung{{"engine", r.med("engine", k)}, {"tenant", a}, {"replication", t}, {handlerName, handler(k, t)}}
			}
		}
		rungs = append(rungs, Rung{"transport", r.med(own, k)}, Rung{"load", top})
		r.out.Ladders = append(r.out.Ladders, KindLadder{Kind: k, Steps: Subtract(rungs), Top: top})
	}
}
