package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
	"adminrefine/internal/server"
	"adminrefine/internal/storage"
)

// sessionFixture is Figure 1 plus eve (single-path nurse) and a root
// administrator holding the strict grant/revoke privileges over eve's nurse
// assignment, so the test can flip it through the transition function.
func sessionFixture() *policy.Policy {
	p := policy.Figure1()
	p.Assign("eve", policy.RoleNurse)
	p.Assign("root", "admins")
	for _, priv := range []model.Privilege{
		model.Grant(model.User("eve"), model.Role(policy.RoleNurse)),
		model.Revoke(model.User("eve"), model.Role(policy.RoleNurse)),
	} {
		if _, err := p.GrantPrivilege("admins", priv); err != nil {
			panic(err)
		}
	}
	return p
}

// createSession creates a session over HTTP, honouring a min_generation
// token so role validation runs against fresh-enough state.
func (d *daemon) createSession(t *testing.T, tenant, user string, roles []string, minGen uint64) server.SessionResponse {
	t.Helper()
	var out struct {
		Results server.SessionResponse `json:"results"`
	}
	d.post(t, "/v1/tenants/"+tenant+"/sessions",
		map[string]any{"user": user, "activate": roles, "min_generation": minGen}, &out)
	return out.Results
}

// checkMin runs a batched access check with a min_generation token,
// returning the allowed bits, the generation served at, and the status.
func (d *daemon) checkMin(t *testing.T, tenant string, sid uint64, minGen uint64, queries []server.CheckQuery) ([]bool, uint64, int) {
	t.Helper()
	data, err := json.Marshal(map[string]any{"session": sid, "checks": queries, "min_generation": minGen})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.base+"/v1/tenants/"+tenant+"/check", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results    []server.CheckResult `json:"results"`
		Generation uint64               `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	got := make([]bool, len(out.Results))
	for i, r := range out.Results {
		got[i] = r.Allowed
	}
	return got, out.Generation, resp.StatusCode
}

// audit fetches the tenant's audit trail.
func (d *daemon) audit(t *testing.T, tenant string) (records []storage.Record, total uint64) {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/tenants/" + tenant + "/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET audit: status %d", resp.StatusCode)
	}
	var out struct {
		Records []storage.Record `json:"records"`
		Total   uint64           `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Records, out.Total
}

// TestSessionAuditEndToEnd is the acceptance test of the dissolved monitor:
// sessions and access checks served per tenant on primary and follower
// alike, check honouring min_generation exactly like authorize (a follower
// never serves a verdict staler than the token), and the audit trail
// surviving SIGKILL+restart on the primary while streaming to the follower.
func TestSessionAuditEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	primDir, folDir := t.TempDir(), t.TempDir()
	primArgs := []string{"-addr", "127.0.0.1:0", "-data", primDir, "-mode", "refined"}
	prim := startDaemon(t, primArgs...)
	fol := startDaemon(t, "-addr", "127.0.0.1:0", "-data", folDir, "-mode", "refined",
		"-role", "follower", "-upstream", prim.base, "-poll-wait", "250ms")

	prim.putPolicy(t, "hosp", sessionFixture())

	readT1 := []server.CheckQuery{{Action: "read", Object: "t1"}}

	// Sessions are node-local: create one on each node for the same tenant.
	psess := prim.createSession(t, "hosp", "eve", []string{policy.RoleNurse}, 0)
	fsess := fol.createSession(t, "hosp", "eve", []string{policy.RoleNurse}, 0)
	for _, d := range []struct {
		name string
		d    *daemon
		sid  uint64
	}{{"primary", prim, psess.Session}, {"follower", fol, fsess.Session}} {
		got, _, code := d.d.checkMin(t, "hosp", d.sid, 0, readT1)
		if code != http.StatusOK || !got[0] {
			t.Fatalf("%s: initial check = %v (status %d), want allowed", d.name, got, code)
		}
	}
	// A primary session id means nothing on the follower beyond coincidence;
	// an id neither node issued is 404 (node-local state).
	if _, _, code := fol.checkMin(t, "hosp", 9999, 0, readT1); code != http.StatusNotFound {
		t.Fatalf("unknown session on follower: status %d, want 404", code)
	}

	// Flip eve's nurse assignment through the transition function and chase
	// each write's generation token with a follower check: the verdict at
	// min_generation=token must reflect the write, never a staler state.
	edge := func(op func(string, model.Vertex, model.Vertex) command.Command) command.Command {
		return op("root", model.User("eve"), model.Role(policy.RoleNurse))
	}
	applied := 0
	for i := 0; i < 6; i++ {
		var cmd command.Command
		var want bool
		if i%2 == 0 {
			cmd, want = edge(command.Revoke), false
		} else {
			cmd, want = edge(command.Grant), true
		}
		res, gen := prim.submitGen(t, "hosp", cmd)
		if res[0].Outcome != "applied" {
			t.Fatalf("flip %d: %+v", i, res)
		}
		applied++
		got, servedGen, code := fol.checkMin(t, "hosp", fsess.Session, gen, readT1)
		if code != http.StatusOK {
			t.Fatalf("flip %d: follower check with token %d: status %d", i, gen, code)
		}
		if servedGen < gen {
			t.Fatalf("flip %d: follower served generation %d below token %d", i, servedGen, gen)
		}
		if got[0] != want {
			t.Fatalf("flip %d: follower check at generation %d = %v, want %v (stale verdict)", i, gen, got[0], want)
		}
	}

	// An unreachable token 409s after the bounded wait — never a stale 200.
	if _, _, code := fol.checkMin(t, "hosp", fsess.Session, 1000, readT1); code != http.StatusConflict {
		t.Fatalf("unreachable min_generation check: status %d, want 409", code)
	}

	// A denied submit audits with its outcome on the primary.
	if res, _ := prim.submitGen(t, "hosp", command.Grant("nobody", model.User("eve"), model.Role(policy.RoleStaff))); res[0].Outcome != "denied" {
		t.Fatalf("denied probe: %+v", res)
	}

	precs, ptotal := prim.audit(t, "hosp")
	if ptotal != uint64(applied)+1 || len(precs) != applied+1 {
		t.Fatalf("primary audit: %d records, total %d, want %d applied + 1 denied", len(precs), ptotal, applied)
	}
	denials := 0
	for _, r := range precs {
		if !r.IsAudit() {
			t.Fatalf("non-audit record on the audit endpoint: %+v", r)
		}
		if r.Outcome == command.Denied {
			denials++
		}
	}
	if denials != 1 {
		t.Fatalf("primary audit denials = %d, want 1", denials)
	}

	// The applied-command audit trail is visible on the follower (re-minted
	// from the replicated steps as they replayed).
	waitForGeneration(t, fol, "hosp", uint64(applied))
	frecs, _ := fol.audit(t, "hosp")
	fapplied := 0
	for _, r := range frecs {
		if r.IsAudit() && r.Outcome == command.Applied {
			fapplied++
		}
	}
	if fapplied != applied {
		t.Fatalf("follower audit: %d applied records, want %d", fapplied, applied)
	}

	// A follower that joins late takes the snapshot-bootstrap path (no steps
	// left to replay) and must adopt the primary's audit window wholesale —
	// the denial record included, which step re-minting alone cannot ship.
	late := startDaemon(t, "-addr", "127.0.0.1:0", "-data", t.TempDir(), "-mode", "refined",
		"-role", "follower", "-upstream", prim.base, "-poll-wait", "250ms")
	lrecs, ltotal := late.audit(t, "hosp")
	if ltotal != ptotal || len(lrecs) != len(precs) {
		t.Fatalf("late follower audit: %d records total %d, want %d/%d", len(lrecs), ltotal, len(precs), ptotal)
	}
	for i := range lrecs {
		if lrecs[i].Outcome != precs[i].Outcome || lrecs[i].Seq != precs[i].Seq {
			t.Fatalf("late follower audit record %d = %+v, want %+v", i, lrecs[i], precs[i])
		}
	}

	// SIGKILL the primary and restart it on the same directory: the audit
	// trail must replay from the WAL — same records, same outcomes.
	prim.kill(t)
	prim2 := startDaemon(t, primArgs...)
	rrecs, rtotal := prim2.audit(t, "hosp")
	if rtotal != ptotal || len(rrecs) != len(precs) {
		t.Fatalf("post-SIGKILL audit: %d records total %d, want %d/%d", len(rrecs), rtotal, len(precs), ptotal)
	}
	for i := range rrecs {
		if rrecs[i].Outcome != precs[i].Outcome || rrecs[i].Seq != precs[i].Seq || rrecs[i].Cmd.Actor != precs[i].Cmd.Actor {
			t.Fatalf("post-SIGKILL audit record %d = %+v, want %+v", i, rrecs[i], precs[i])
		}
	}

	// And sessions really are node-local runtime state: the restarted
	// primary does not know the pre-crash session.
	if _, _, code := prim2.checkMin(t, "hosp", psess.Session, 0, readT1); code != http.StatusNotFound {
		t.Fatalf("pre-crash session survived the restart: status %d, want 404", code)
	}
}
