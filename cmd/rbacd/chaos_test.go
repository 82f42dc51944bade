package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/server"
	"adminrefine/internal/storage"
	"adminrefine/internal/workload"
)

// healthDoc is the healthz wire shape the failover tests read: the node's
// role, its fencing epoch, and (for followers) the upstream it pulls from.
type healthDoc struct {
	Role     string `json:"role"`
	Epoch    uint64 `json:"epoch"`
	Upstream string `json:"upstream"`
}

func (d *daemon) health(t *testing.T) healthDoc {
	t.Helper()
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthDoc
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func waitForRole(t *testing.T, d *daemon, role string) healthDoc {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var h healthDoc
	for time.Now().Before(deadline) {
		h = d.health(t)
		if h.Role == role {
			return h
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("node %s stuck in role %q, want %q", d.base, h.Role, role)
	return h
}

// roleChange is the admin endpoints' response shape.
type roleChange struct {
	Role     string `json:"role"`
	Epoch    uint64 `json:"epoch"`
	Upstream string `json:"upstream"`
}

func (d *daemon) promote(t *testing.T, ifEpoch uint64) roleChange {
	t.Helper()
	body := map[string]any{}
	if ifEpoch != 0 {
		body["if_epoch"] = ifEpoch
	}
	var out roleChange
	d.post(t, "/v1/cluster/promote", body, &out)
	return out
}

func (d *daemon) repoint(t *testing.T, upstream string) roleChange {
	t.Helper()
	var out roleChange
	d.post(t, "/v1/cluster/repoint", map[string]any{"upstream": upstream}, &out)
	return out
}

// submitStatus is d.post's non-fatal sibling: it submits and reports the raw
// HTTP status, so tests can assert a fenced node's 421 refusal. On non-2xx
// it also hands back the decoded error envelope for typed-code assertions.
func (d *daemon) submitStatus(t *testing.T, name string, cmds ...command.Command) (int, []server.SubmitResult, *api.Error) {
	t.Helper()
	data, err := json.Marshal(batchOf(t, cmds...))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.base+"/v1/tenants/"+name+"/submit", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []server.SubmitResult `json:"results"`
	}
	json.Unmarshal(raw, &out)
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, out.Results, nil
	}
	return resp.StatusCode, out.Results, api.Decode(resp.StatusCode, raw)
}

// auditTrail fetches a tenant's full retained audit trail with the
// node-local audit index (ASeq) cleared — the byte-comparable form for
// cross-node convergence checks: everything else on a record (seq, actor,
// op, vertices, outcome, epoch stamp) is replicated content and must match.
func (d *daemon) auditTrail(t *testing.T, name string) []storage.Record {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/tenants/" + name + "/audit?limit=1000000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit %s on %s: status %d", name, d.base, resp.StatusCode)
	}
	var out struct {
		Records []storage.Record `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for i := range out.Records {
		out.Records[i].ASeq = 0
	}
	return out.Records
}

func tenantIndex(t *testing.T, name string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(name, "r%03d", &i); err != nil {
		t.Fatalf("unexpected generated tenant name %q", name)
	}
	return i
}

// TestFailoverChaosEndToEnd is the acceptance test of surviving primary
// death: real rbacd processes under deterministic workload.ReplicatedGen
// churn, the primary SIGKILLed mid-stream, a follower promoted by epoch
// fencing, the fleet re-pointed, and — because the driver runs semi-
// synchronously, confirming every acknowledged write on the promotion target
// before counting it — a checkable zero-acknowledged-write-loss guarantee.
// The resurrected ex-primary then rejoins with a forked epoch-0 suffix and
// must be fenced on first touch and healed by a rewinding bootstrap.
func TestFailoverChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	primDir := t.TempDir()
	prim := startDaemon(t, "-addr", "127.0.0.1:0", "-data", primDir)
	folArgs := func(dir string) []string {
		return []string{"-addr", "127.0.0.1:0", "-data", dir,
			"-role", "follower", "-upstream", prim.base, "-poll-wait", "250ms"}
	}
	a := startDaemon(t, folArgs(t.TempDir())...)
	b := startDaemon(t, folArgs(t.TempDir())...)

	cfg := workload.ReplicatedConfig{
		Seed: 7, Tenants: 3, Roles: 16, Users: 16, Followers: 2,
		Skew: 1.2, SubmitFrac: 0.45, TokenFrac: 0.5, ConfirmWrites: true,
	}
	g := workload.NewReplicatedGen(cfg)
	for i := 0; i < cfg.Tenants; i++ {
		prim.putPolicy(t, g.TenantName(i), g.Policy(i))
	}

	// confirmed[i] is the highest generation of tenant i proven replicated
	// to the designated survivor before its ack was counted — the population
	// the zero-loss assertion quantifies over.
	confirmed := make([]uint64, cfg.Tenants)

	// drive pushes n generated operations: every write goes to primary and
	// is confirmed on confirmOn (a min_generation read) before the driver
	// proceeds; reads spread over the fleet, honouring their tokens. The
	// generation-token equality check doubles as the monotonicity assertion:
	// acked generations must continue the generator's count exactly,
	// across failovers included.
	drive := func(primary, confirmOn *daemon, fleet []*daemon, n int) {
		t.Helper()
		for j := 0; j < n; j++ {
			op := g.Next()
			i := tenantIndex(t, op.Tenant)
			if op.Submit {
				res, gen := primary.submitGen(t, op.Tenant, op.Cmd)
				if res[0].Outcome != "applied" {
					t.Fatalf("op %d: submit %s: %+v", j, op.Tenant, res)
				}
				if gen != op.MinGeneration {
					t.Fatalf("op %d: %s acked generation %d, want %d (not monotone with the stream)",
						j, op.Tenant, gen, op.MinGeneration)
				}
				if _, served, code := confirmOn.authorizeMin(t, op.Tenant, gen, []command.Command{deniedProbe()}); code != http.StatusOK || served < gen {
					t.Fatalf("op %d: confirm %s gen %d on %s: status %d, served %d",
						j, op.Tenant, gen, confirmOn.base, code, served)
				}
				confirmed[i] = gen
				continue
			}
			r := fleet[op.Node%len(fleet)]
			got, served, code := r.authorizeMin(t, op.Tenant, op.MinGeneration, []command.Command{op.Cmd, deniedProbe()})
			if code != http.StatusOK {
				t.Fatalf("op %d: read %s on %s (min %d): status %d", j, op.Tenant, r.base, op.MinGeneration, code)
			}
			if op.MinGeneration > 0 && served < op.MinGeneration {
				t.Fatalf("op %d: read served generation %d below token %d", j, served, op.MinGeneration)
			}
			if got[1] {
				t.Fatalf("op %d: denied probe allowed on %s", j, r.base)
			}
		}
	}

	// Phase 1: semi-synchronously confirmed churn against the epoch-0
	// primary, reads across both followers.
	drive(prim, a, []*daemon{a, b}, 90)

	// Phase 2: SIGKILL the primary — no shutdown hook, no flush — and
	// promote follower A. Promotion durably advances the fencing epoch
	// before the node serves a single write.
	prim.kill(t)
	pr := a.promote(t, 0)
	if pr.Role != "primary" || pr.Epoch != 1 {
		t.Fatalf("promote A: %+v, want primary at epoch 1", pr)
	}

	// Zero acknowledged-write loss: the driver confirmed every ack on A, so
	// A must hold exactly the generator's count for every tenant.
	for i := 0; i < cfg.Tenants; i++ {
		name := g.TenantName(i)
		st := a.stats(t, name)
		if st.Generation < confirmed[i] {
			t.Fatalf("tenant %s: promoted node at generation %d, confirmed %d — acknowledged write lost",
				name, st.Generation, confirmed[i])
		}
		if st.Generation != g.Generation(i) {
			t.Fatalf("tenant %s: promoted node at generation %d, generator at %d",
				name, st.Generation, g.Generation(i))
		}
	}

	// Re-point B at the new primary: it resumes pulling at its local WAL
	// position and adopts epoch 1 from the first response.
	if rp := b.repoint(t, a.base); rp.Role != "follower" || rp.Upstream != a.base {
		t.Fatalf("repoint B: %+v", rp)
	}

	// Phase 3: the same deterministic stream continues against the new
	// primary, confirmed on B. The in-drive token equality proves the
	// generation sequence continued exactly where the dead primary left it.
	drive(a, b, []*daemon{b}, 60)

	// Phase 4: audit convergence. B confirmed every write, so after catching
	// up it must hold a byte-identical audit trail: same records, same
	// order, same epoch stamps — only the node-local ASeq differs (zeroed).
	for i := 0; i < cfg.Tenants; i++ {
		name := g.TenantName(i)
		waitForGeneration(t, b, name, g.Generation(i))
		want, _ := json.Marshal(a.auditTrail(t, name))
		got, _ := json.Marshal(b.auditTrail(t, name))
		if !bytes.Equal(want, got) {
			t.Fatalf("tenant %s: audit diverged between promoted primary and follower:\nA: %s\nB: %s", name, want, got)
		}
		if g.Generation(i) > 0 && len(a.auditTrail(t, name)) == 0 {
			t.Fatalf("tenant %s: empty audit trail at generation %d", name, g.Generation(i))
		}
	}

	// Phase 5: resurrect the dead primary on its old data directory. Its
	// durable node epoch is still 0 — it never saw the coup — so it comes
	// back believing it is the primary, and even accepts a forked write.
	prim2 := startDaemon(t, "-addr", "127.0.0.1:0", "-data", primDir)
	if h := prim2.health(t); h.Role != "primary" || h.Epoch != 0 {
		t.Fatalf("resurrected ex-primary health: %+v, want primary at epoch 0", h)
	}
	forkTenant := g.TenantName(0)
	forkCmd := workload.ChurnGrant(int(g.Generation(0)), cfg.Users, cfg.Roles)
	if code, res, _ := prim2.submitStatus(t, forkTenant, forkCmd); code != http.StatusOK || res[0].Outcome != "applied" {
		t.Fatalf("fork write on resurrected ex-primary: status %d, %+v", code, res)
	}

	// First replication touch fences it: point B at the impostor. B's pull
	// carries epoch 1; a source seeing a higher peer epoch demotes itself on
	// the spot and answers 421. (The repointed follower pulls lazily — one
	// read on B starts the loop; B keeps serving its own state throughout.)
	b.repoint(t, prim2.base)
	b.authorizeMin(t, forkTenant, 0, []command.Command{deniedProbe()})
	if h := waitForRole(t, prim2, "fenced"); h.Epoch != 1 {
		t.Fatalf("fenced ex-primary adopted epoch %d, want 1", h.Epoch)
	}

	// A fenced node refuses writes outright: 421 with the typed fenced code
	// and its deposing epoch in the envelope — no redirect, no ack.
	if code, _, e := prim2.submitStatus(t, forkTenant, forkCmd); code != http.StatusMisdirectedRequest ||
		e == nil || e.Code != api.CodeFenced || e.Epoch != 1 {
		t.Fatalf("write to fenced ex-primary: status %d envelope %+v, want 421 %q at epoch 1", code, e, api.CodeFenced)
	}

	// Rejoin the fleet: B back to the real primary, the deposed node as a
	// follower of A. Its forked epoch-0 suffix fails the (epoch, seq) prefix
	// check and a rewinding snapshot bootstrap discards it; its unforked
	// tenants catch up incrementally from their local WAL positions.
	b.repoint(t, a.base)
	if rp := prim2.repoint(t, a.base); rp.Role != "follower" {
		t.Fatalf("rejoin deposed node: %+v", rp)
	}

	// More confirmed load with the full fleet reading, then final
	// convergence: every node at the generator's generation, identical
	// decisions and audit trails on all three, the fork gone.
	drive(a, b, []*daemon{b, prim2}, 40)
	for i := 0; i < cfg.Tenants; i++ {
		name := g.TenantName(i)
		want := g.Generation(i)
		waitForGeneration(t, b, name, want)
		waitForGeneration(t, prim2, name, want)
		if st := prim2.followerStats(t, name); st.Generation != want {
			t.Fatalf("rejoined node %s at generation %d, want %d (forked write must not survive)",
				name, st.Generation, want)
		}
		probes := []command.Command{workload.ChurnGrant(int(want), cfg.Users, cfg.Roles), deniedProbe()}
		wantDec, _, _ := a.authorizeMin(t, name, 0, probes)
		for _, d := range []*daemon{b, prim2} {
			if got, _, code := d.authorizeMin(t, name, want, probes); code != http.StatusOK || fmt.Sprint(got) != fmt.Sprint(wantDec) {
				t.Fatalf("tenant %s: decisions diverged on %s: %v (status %d), want %v", name, d.base, got, code, wantDec)
			}
		}
		wantAudit, _ := json.Marshal(a.auditTrail(t, name))
		for _, d := range []*daemon{b, prim2} {
			if got, _ := json.Marshal(d.auditTrail(t, name)); !bytes.Equal(wantAudit, got) {
				t.Fatalf("tenant %s: audit diverged on %s:\nwant %s\ngot  %s", name, d.base, wantAudit, got)
			}
		}
	}
	for _, n := range []struct {
		d    *daemon
		role string
	}{{a, "primary"}, {b, "follower"}, {prim2, "follower"}} {
		if h := n.d.health(t); h.Role != n.role || h.Epoch != 1 {
			t.Fatalf("final topology: %s is %q at epoch %d, want %q at epoch 1", n.d.base, h.Role, h.Epoch, n.role)
		}
	}

	// The whole fleet still shuts down gracefully after the churn.
	prim2.terminate(t)
	b.terminate(t)
	a.terminate(t)
}

// TestAutoPromoteOnUpstreamLoss exercises the hands-off failover path:
// a follower started with -promote-on-upstream-loss deposes a SIGKILLed
// upstream after the configured number of failed probes, serves writes at
// the advanced epoch, and — because the epoch is durable node state — still
// knows it was promoted after its own crash and restart.
func TestAutoPromoteOnUpstreamLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	primDir, aDir := t.TempDir(), t.TempDir()
	prim := startDaemon(t, "-addr", "127.0.0.1:0", "-data", primDir)
	a := startDaemon(t, "-addr", "127.0.0.1:0", "-data", aDir,
		"-role", "follower", "-upstream", prim.base, "-poll-wait", "250ms",
		"-promote-on-upstream-loss", "-probe-interval", "100ms", "-probe-threshold", "3")

	prim.putPolicy(t, "acme", workload.ChurnPolicy(churnRoles, churnUsers))
	var lastGen uint64
	for i := 0; i < 5; i++ {
		res, gen := prim.submitGen(t, "acme", churnGrant(i))
		if res[0].Outcome != "applied" {
			t.Fatalf("submit %d: %+v", i, res)
		}
		if _, served, code := a.authorizeMin(t, "acme", gen, []command.Command{deniedProbe()}); code != http.StatusOK || served < gen {
			t.Fatalf("confirm gen %d: status %d, served %d", gen, code, served)
		}
		lastGen = gen
	}

	// A healthy upstream keeps the probe quiet: several probe periods must
	// not flip the follower.
	time.Sleep(500 * time.Millisecond)
	if h := a.health(t); h.Role != "follower" || h.Epoch != 0 {
		t.Fatalf("follower self-promoted under a healthy upstream: %+v", h)
	}

	// Kill the primary; after probe-threshold consecutive failures the
	// follower promotes itself (durable epoch bump first) and serves writes
	// that continue the generation sequence.
	prim.kill(t)
	if h := waitForRole(t, a, "primary"); h.Epoch != 1 {
		t.Fatalf("auto-promoted at epoch %d, want 1", h.Epoch)
	}
	res, gen := a.submitGen(t, "acme", churnGrant(5))
	if res[0].Outcome != "applied" || gen != lastGen+1 {
		t.Fatalf("write after auto-promotion: %+v gen %d, want applied gen %d", res, gen, lastGen+1)
	}

	// The epoch survives the promoted node's own crash: restart on the same
	// data directory comes back at epoch 1 with the post-promotion write.
	a.kill(t)
	a2 := startDaemon(t, "-addr", "127.0.0.1:0", "-data", aDir)
	if h := a2.health(t); h.Role != "primary" || h.Epoch != 1 {
		t.Fatalf("restarted promoted node: %+v, want primary at epoch 1", h)
	}
	if st := a2.stats(t, "acme"); st.Generation != lastGen+1 {
		t.Fatalf("restarted promoted node at generation %d, want %d", st.Generation, lastGen+1)
	}
	a2.terminate(t)
}
