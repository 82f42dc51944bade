package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/server"
	"adminrefine/internal/workload"
)

// TestOverloadDegradationEndToEnd drives the degradation contract against a
// real rbacd process with deliberately tiny admission limits: a steady phase
// sets the latency yardstick, then a storm (3x the rate plus greedy
// closed-loop clients) saturates both classes. The contract under test:
// excess load sheds with 429 (reads) / 503 (writes) + Retry-After and never
// hard errors, admitted latency stays bounded, observability endpoints stay
// ungated, the server's shed counters reconcile exactly with what clients
// saw, no acknowledged write is lost, and SIGTERM still drains cleanly.
func TestOverloadDegradationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process overload smoke")
	}
	mix := workload.DefaultServeMix(11)
	mix.Tenants = 4
	mix.Roles, mix.Users = 16, 32
	g := workload.NewMultiTenantGen(mix.MultiTenantConfig)

	prim := startDaemon(t,
		"-addr", "127.0.0.1:0", "-data", t.TempDir(),
		"-sync", "-compact-every", "-1",
		"-max-inflight-reads", "1", "-read-queue", "0",
		"-max-inflight-writes", "1", "-write-queue", "2",
		"-max-request-time", "2s")
	for i := 0; i < mix.Tenants; i++ {
		prim.putPolicy(t, g.TenantName(i), g.Policy(i))
	}
	// The write flood gets its own tenant so its grants never collide with
	// the harness's deterministic grant sequence (a duplicate grant is a
	// "nochange" outcome — an op error, not a shed).
	prim.putPolicy(t, "flood", g.Policy(0))

	target := &httpTarget{ReadBase: prim.base}
	const steadyRate, stormRate = 150.0, 450.0
	phase := 2 * time.Second
	steadyN := int(steadyRate*phase.Seconds()) + 8
	stormN := int(stormRate*phase.Seconds()) + 8
	slab := workload.GenServeOps(mix, steadyN+stormN)

	steady, err := workload.RunOpenLoop(workload.OpenLoopConfig{
		Rate: steadyRate, Duration: phase, Workers: 8,
	}, slab[:steadyN], target)
	if err != nil {
		t.Fatal(err)
	}
	if steady.Completed == 0 || steady.Errors != 0 || steady.Stale != 0 {
		t.Fatalf("steady phase not clean: %d completed, %d errors, %d stale", steady.Completed, steady.Errors, steady.Stale)
	}
	t.Logf("steady: %d completed, %d shed", steady.Completed, steady.Shed)
	steady429, steady503 := target.ShedCounts()

	// The storm: the open-loop harness at 3x the steady rate measures what a
	// well-behaved client experiences while two greedy clients run — a
	// parker pinning the single read slot (a read-your-writes authorize
	// against the next unborn generation holds its admission slot for the
	// whole generation wait) and a closed-loop write flood against
	// MaxInFlight 1 + queue 2.
	stop := make(chan struct{})
	var hammers sync.WaitGroup
	hammers.Add(1)
	go func() { // parker
		defer hammers.Done()
		op := workload.ServeOp{Kind: workload.OpAuthorize, Tenant: g.TenantName(0),
			Cmds: []command.Command{workload.ChurnGrant(0, mix.Users, mix.Roles)}}
		var minGen uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen, err := target.Do(&op, minGen)
			switch {
			case err == nil:
				minGen = gen + 1
			case errors.Is(err, workload.ErrShed):
				time.Sleep(time.Millisecond)
			default:
				minGen = 0
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for w := 0; w < 6; w++ {
		hammers.Add(1)
		go func(w int) { // write flood
			defer hammers.Done()
			for i := w; ; i += 6 {
				select {
				case <-stop:
					return
				default:
				}
				op := workload.ServeOp{Kind: workload.OpSubmit, Tenant: "flood",
					Cmds: []command.Command{workload.ChurnGrant(i%(mix.Users*mix.Roles), mix.Users, mix.Roles)}}
				target.Do(&op, 0) // sheds land in the target's counters; outcomes discarded
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// While the storm saturates both classes, observability must stay
	// ungated and a shed read must carry the contract's status line.
	var extra429, extra503 uint64
	stormDone := make(chan *workload.OpenLoopResult, 1)
	go func() {
		res, err := workload.RunOpenLoop(workload.OpenLoopConfig{
			Rate: stormRate, Duration: phase, Workers: 8,
		}, slab[steadyN:], target)
		if err != nil {
			t.Error(err)
		}
		stormDone <- res
	}()
	time.Sleep(300 * time.Millisecond)
	for _, path := range []string{"/healthz", "/v1/tenants/" + g.TenantName(0) + "/stats"} {
		resp, err := http.Get(prim.base + path)
		if err != nil {
			t.Fatalf("%s during storm: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s during storm: status %d — observability must never be gated", path, resp.StatusCode)
		}
	}
	if ra := pollFor429(t, prim.base, g.TenantName(0), mix); ra == "" {
		t.Fatal("shed read answered 429 without Retry-After")
	}
	extra429++

	storm := <-stormDone
	close(stop)
	hammers.Wait()
	if storm == nil {
		t.FailNow()
	}
	if storm.Errors != 0 {
		t.Fatalf("%d admitted ops failed during the storm (%d stale) — excess load must shed 429/503, not error", storm.Errors, storm.Stale)
	}
	if storm.Shed == 0 {
		t.Fatal("storm shed nothing from the harness — admission limits are not engaging")
	}
	after429, after503 := target.ShedCounts()
	if after429 == steady429 {
		t.Fatal("storm produced no 429s — reads are not shedding")
	}
	if after503 == steady503 {
		t.Fatal("storm produced no 503s — the write path is not shedding")
	}
	t.Logf("storm: %d completed, %d shed by harness (429 %d / 503 %d incl. hammers)",
		storm.Completed, storm.Shed, after429-steady429, after503-steady503)

	// Admitted latency bounded: shedding, not collapsing. Under the race
	// detector every service time is multiplied and the greedy clients
	// contend for this machine's cores, so the bound is held against the
	// 2s request budget rather than a healthy-machine yardstick.
	mult, floor := time.Duration(5), 500*time.Millisecond
	if raceEnabled {
		mult, floor = 10, 1500*time.Millisecond
	}
	for kind, sks := range steady.Kinds {
		admitted := sks.Count - sks.Shed
		oks := storm.Kinds[kind]
		if admitted == 0 || oks == nil || oks.Count == oks.Shed {
			continue
		}
		steadyP99 := time.Duration(sks.Hist.Quantile(0.99))
		bound := mult * steadyP99
		if bound < floor {
			bound = floor
		}
		stormP99 := time.Duration(oks.Hist.Quantile(0.99))
		if stormP99 > bound {
			t.Errorf("%s admitted p99 %v under storm exceeds bound %v (steady %v)", kind, stormP99, bound, steadyP99)
		}
	}

	// A client-tightened deadline on a read that must wait (a far-future
	// generation) is cut fast with 503 + Retry-After, not held to the
	// server's 2s budget.
	cutStart := time.Now()
	status, ra := deadlineProbe(t, prim.base, g.TenantName(0), mix, "50")
	if status != http.StatusServiceUnavailable || ra == "" {
		t.Fatalf("deadline-cut generation wait: status %d Retry-After %q, want 503 with Retry-After", status, ra)
	}
	if cut := time.Since(cutStart); cut > time.Second {
		t.Fatalf("50ms client deadline took %v to cut", cut)
	}
	extra503++

	// Zero acknowledged writes lost: every tenant still answers at its last
	// acked generation (retrying through the storm's draining tail).
	audited := 0
	for ti := range storm.LastAcked {
		gen := storm.LastAcked[ti]
		if sg := steady.LastAcked[ti]; sg > gen {
			gen = sg
		}
		if gen == 0 {
			continue
		}
		op := workload.ServeOp{Kind: workload.OpAuthorize, Tenant: g.TenantName(ti),
			Cmds: []command.Command{workload.ChurnGrant(0, mix.Users, mix.Roles)}}
		var lastErr error
		for attempt := 0; attempt < 50; attempt++ {
			if _, lastErr = target.Do(&op, gen); lastErr == nil {
				break
			}
			if !errors.Is(lastErr, workload.ErrShed) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if lastErr != nil {
			t.Fatalf("tenant %s lost acked generation %d: %v", op.Tenant, gen, lastErr)
		}
		audited++
	}
	if audited == 0 {
		t.Fatal("no tenant acknowledged a write — the storm never exercised the write path")
	}

	// The server's shed accounting reconciles exactly with what clients saw:
	// every request that could shed went through the counted target or was
	// tallied here by hand.
	total429, total503 := target.ShedCounts()
	total429 += extra429
	total503 += extra503
	var health struct {
		Overload map[string]any `json:"overload"`
	}
	resp, err := http.Get(prim.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var serverShed uint64
	for _, k := range []string{"shed_read", "shed_write", "shed_deadline", "breaker_fast_fail"} {
		if v, ok := health.Overload[k].(float64); ok {
			serverShed += uint64(v)
		}
	}
	if want := total429 + total503; serverShed != want {
		t.Fatalf("server shed counters total %d, clients observed %d (429 %d + 503 %d)", serverShed, want, total429, total503)
	}
	t.Logf("reconciled: server shed %d == client 429 %d + 503 %d; %d tenants' acked writes verified", serverShed, total429, total503, audited)

	// And the saturated node still drains cleanly on SIGTERM.
	prim.terminate(t)
}

// pollFor429 issues authorize reads until one sheds with 429, returning its
// Retry-After header. The parker holds the single read slot for a commit
// interval at a time, so a shed arrives within a few probes. The shed body
// must be the unified envelope with the overloaded code — clients dispatch
// on it, not on prose.
func pollFor429(t *testing.T, base, tenantName string, mix workload.ServeMix) string {
	t.Helper()
	body := authorizeBody(t, mix)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Post(base+"/v1/tenants/"+tenantName+"/authorize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if e := api.Decode(resp.StatusCode, raw); e.Code != api.CodeOverloaded {
				t.Fatalf("shed read code %q, want %q (body %s)", e.Code, api.CodeOverloaded, raw)
			}
			return resp.Header.Get("Retry-After")
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no read shed 429 while the parker held the read slot")
	return ""
}

// deadlineProbe authorizes against a far-future generation under a client
// X-Request-Deadline, returning the status and Retry-After it got. A non-2xx
// answer must carry the deadline code in the unified envelope.
func deadlineProbe(t *testing.T, base, tenantName string, mix workload.ServeMix, budget string) (int, string) {
	t.Helper()
	body := authorizeBody(t, mix, 1<<40)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/tenants/"+tenantName+"/authorize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.HeaderRequestDeadline, budget)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		if e := api.Decode(resp.StatusCode, raw); e.Code != api.CodeDeadline {
			t.Fatalf("deadline-cut code %q, want %q (body %s)", e.Code, api.CodeDeadline, raw)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// authorizeBody renders a one-command authorize request, with an optional
// min_generation.
func authorizeBody(t *testing.T, mix workload.ServeMix, minGen ...uint64) string {
	t.Helper()
	wc, err := server.EncodeCommand(workload.ChurnGrant(0, mix.Users, mix.Roles))
	if err != nil {
		t.Fatal(err)
	}
	req := server.BatchRequest{Commands: []server.WireCommand{wc}}
	if len(minGen) > 0 {
		req.MinGeneration = minGen[0]
	}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestFollowerBreakerFastFailsWhenUpstreamDies proves the daemon-level
// breaker wiring: one breaker is shared between the follower's pull client
// and the server's write-forwarding path, so after the primary dies hard
// the follower stops redirecting writes at the corpse (307) and answers
// 503 + Retry-After immediately, while its reads keep serving.
func TestFollowerBreakerFastFailsWhenUpstreamDies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process breaker smoke")
	}
	mix := workload.DefaultServeMix(13)
	g := workload.NewMultiTenantGen(mix.MultiTenantConfig)
	prim := startDaemon(t, "-addr", "127.0.0.1:0", "-data", t.TempDir())
	prim.putPolicy(t, "acme", g.Policy(0))
	fol := startDaemon(t,
		"-addr", "127.0.0.1:0", "-data", t.TempDir(),
		"-role", "follower", "-upstream", prim.base)

	// A write through the primary, then a follower read chasing its token:
	// the follower's pull loop for the tenant is now live — the breaker's
	// failure source once the upstream dies.
	_, gen := prim.submitGen(t, "acme", workload.ChurnGrant(0, mix.Users, mix.Roles))
	waitForGeneration(t, fol, "acme", gen)

	prim.kill(t)

	// The pull loop's consecutive failures trip the breaker within a few
	// backoff rounds; once open, a forwarded write fast-fails instead of
	// redirecting. Before the trip we see 307s — poll through them.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	body := authorizeBody(t, mix)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened: follower still redirecting writes at a dead primary")
		}
		resp, err := noRedirect.Post(fol.base+"/v1/tenants/acme/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("breaker fast-fail 503 without Retry-After")
			}
			if e := api.Decode(resp.StatusCode, raw); e.Code != api.CodeUnavailable || e.Node == "" {
				t.Fatalf("breaker fast-fail envelope %+v, want %q with the dead upstream", e, api.CodeUnavailable)
			}
			break
		}
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("forwarded write: status %d, want 307 (breaker closed) or 503 (open)", resp.StatusCode)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Reads keep serving replicated state, and healthz shows the trip.
	resp, err := http.Post(fol.base+"/v1/tenants/acme/authorize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower read after breaker trip: status %d", resp.StatusCode)
	}
	var health struct {
		Overload struct {
			Breaker struct {
				State string  `json:"state"`
				Trips float64 `json:"trips"`
			} `json:"breaker"`
		} `json:"overload"`
	}
	hresp, err := http.Get(fol.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Overload.Breaker.State == "closed" || health.Overload.Breaker.Trips == 0 {
		t.Fatalf("healthz breaker block does not show the trip: %+v", health.Overload.Breaker)
	}
}
