package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/constraints"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/parser"
	"adminrefine/internal/policy"
	"adminrefine/internal/tenant"
)

// sessionEnvelope decodes the batch envelope every session mutation answers
// with (SessionResponse as the results, the validating generation alongside).
type sessionEnvelope struct {
	Results    SessionResponse `json:"results"`
	Generation uint64          `json:"generation"`
}

func TestSessionDSDConstraintOverHTTP(t *testing.T) {
	cons, err := constraints.ParseJSON([]byte(fmt.Sprintf(
		`[{"name":"nd","kind":"dsd","roles":[%q,%q],"n":2}]`, policy.RoleNurse, policy.RoleStaff)))
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined, Constraints: cons})
	ts := httptest.NewServer(NewWithConfig(Config{Registry: reg, Constraints: cons}))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	if code := putPolicy(t, ts.URL, "acme", policy.Figure1()); code != http.StatusNoContent {
		t.Fatalf("put policy status %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/sessions",
		map[string]any{"user": policy.UserDiana, "activate": []string{policy.RoleNurse, policy.RoleStaff}}, nil); code != http.StatusForbidden {
		t.Fatalf("DSD-violating create status %d, want 403", code)
	}
	var sess sessionEnvelope
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/sessions",
		map[string]any{"user": policy.UserDiana, "activate": []string{policy.RoleNurse}}, &sess); code != http.StatusOK {
		t.Fatalf("create status %d", code)
	}
	url := fmt.Sprintf("%s/v1/tenants/acme/sessions/%d", ts.URL, sess.Results.Session)
	if code := doJSON(t, http.MethodPost, url, map[string]any{"activate": []string{policy.RoleStaff}}, nil); code != http.StatusForbidden {
		t.Fatalf("DSD-violating activate status %d, want 403", code)
	}
}

// ssdFixture is a minimal policy whose base state satisfies the {eng, qa}
// SSD pair while jane holds the grant privileges to breach it: the
// install-veto stays quiet and the write-path guard has something to catch.
func ssdFixture() (*policy.Policy, *constraints.Set, error) {
	p := policy.New()
	p.Assign("jane", "HR")
	for _, role := range []string{"eng", "qa"} {
		p.DeclareRole(role)
		if _, err := p.GrantPrivilege("HR", model.Grant(model.User("bob"), model.Role(role))); err != nil {
			return nil, nil, err
		}
	}
	cons, err := constraints.NewSet(constraints.Constraint{
		Name: "eng-qa", Kind: constraints.SSD, Roles: []string{"eng", "qa"}, N: 2,
	})
	return p, cons, err
}

// TestPolicyUploadViolatingConstraintIsForbidden: the install-path veto is
// the policy saying no, as a DSD veto of a session activation is — 403
// forbidden, not a 500 — and provisions nothing.
func TestPolicyUploadViolatingConstraintIsForbidden(t *testing.T) {
	_, cons, err := ssdFixture()
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined, Constraints: cons})
	ts := httptest.NewServer(NewWithConfig(Config{Registry: reg, Constraints: cons}))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	bad := policy.New()
	bad.Assign("bob", "eng")
	bad.Assign("bob", "qa")
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/tenants/acme/policy", strings.NewReader(parser.Print(bad, nil)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if e := api.Decode(resp.StatusCode, raw); err != nil || resp.StatusCode != http.StatusForbidden || e.Code != api.CodeForbidden ||
		!strings.Contains(e.Message, "eng-qa") {
		t.Fatalf("constraint-violating upload: %d %+v (%v), want 403 forbidden naming eng-qa", resp.StatusCode, e, err)
	}
	if st, err := reg.Stats("acme"); err == nil && st.Policy.UA != 0 {
		t.Fatalf("a vetoed upload installed %d assignments", st.Policy.UA)
	}
}

// TestAuditEndpoint drives applied, denied and constraint-vetoed submits and
// asserts the audit trail surfaces all of them with outcomes and reasons.
func TestAuditEndpoint(t *testing.T) {
	pol, cons, err := ssdFixture()
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined, Constraints: cons})
	ts := httptest.NewServer(NewWithConfig(Config{Registry: reg, Constraints: cons}))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	if code := putPolicy(t, ts.URL, "acme", pol); code != http.StatusNoContent {
		t.Fatalf("put policy status %d", code)
	}

	applied := command.Grant("jane", model.User("bob"), model.Role("eng"))
	denied := command.Grant("bob", model.User("joe"), model.Role("eng"))
	// bob already in eng: assigning him to qa would breach the SSD pair.
	vetoed := command.Grant("jane", model.User("bob"), model.Role("qa"))
	var sub struct {
		Results []SubmitResult `json:"results"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/submit", wire(t, applied, denied, vetoed), &sub); code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	wantOutcomes := []string{"applied", "denied", "denied"}
	for i, w := range wantOutcomes {
		if sub.Results[i].Outcome != w {
			t.Fatalf("submit result %d = %+v, want %s", i, sub.Results[i], w)
		}
	}

	var audit auditResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tenants/acme/audit", nil, &audit); code != http.StatusOK {
		t.Fatalf("audit status %d", code)
	}
	if audit.Total != 3 || len(audit.Records) != 3 {
		t.Fatalf("audit total %d records %d, want 3/3", audit.Total, len(audit.Records))
	}
	byOutcome := map[string]int{}
	for _, r := range audit.Records {
		if !r.IsAudit() {
			t.Fatalf("non-audit record on the audit endpoint: %+v", r)
		}
		byOutcome[r.Outcome.WireName()]++
		if r.Outcome == command.Applied && r.Cmd.Actor != "jane" {
			t.Fatalf("applied audit actor %q", r.Cmd.Actor)
		}
	}
	if byOutcome["applied"] != 1 || byOutcome["denied"] != 2 {
		t.Fatalf("audit outcomes %v", byOutcome)
	}
	// Exactly one denial carries the SSD veto reason.
	reasons := 0
	for _, r := range audit.Records {
		if r.Reason != "" {
			reasons++
		}
	}
	if reasons != 1 {
		t.Fatalf("%d audit records carry a veto reason, want 1", reasons)
	}

	// after= pages on the unique audit index (aseq), not the shared step
	// sequence number: no-effect audits all share their generation's Seq,
	// so Seq could never address them individually.
	for i, r := range audit.Records {
		if r.ASeq != uint64(i+1) {
			t.Fatalf("audit record %d has aseq %d, want %d", i, r.ASeq, i+1)
		}
	}
	var page auditResponse
	if code := doJSON(t, http.MethodGet,
		fmt.Sprintf("%s/v1/tenants/acme/audit?after=%d&limit=1", ts.URL, audit.Records[0].ASeq), nil, &page); code != http.StatusOK {
		t.Fatalf("audit page status %d", code)
	}
	if len(page.Records) != 1 || page.Records[0].ASeq != audit.Records[1].ASeq {
		t.Fatalf("audit page after aseq=1 limit=1 = %+v, want record 2", page.Records)
	}
	var tail auditResponse
	if code := doJSON(t, http.MethodGet,
		fmt.Sprintf("%s/v1/tenants/acme/audit?after=%d", ts.URL, audit.Records[len(audit.Records)-1].ASeq), nil, &tail); code != http.StatusOK {
		t.Fatalf("audit after status %d", code)
	}
	if len(tail.Records) != 0 {
		t.Fatalf("audit after the last index returned %d records", len(tail.Records))
	}
}

// TestAuditSurvivesReopen asserts the audit trail is recovered from the WAL
// on a fresh registry over the same directory — the in-process half of the
// durability contract (the SIGKILL e2e lives in cmd/rbacd).
func TestAuditSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	reg := tenant.New(tenant.Options{Dir: dir, Mode: engine.Refined})
	if err := reg.InstallPolicy("acme", policy.Figure2()); err != nil {
		t.Fatal(err)
	}
	applied := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	denied := command.Grant(policy.UserBob, model.User(policy.UserJoe), model.Role(policy.RoleHR))
	if _, _, err := reg.SubmitBatch("acme", []command.Command{applied, denied}); err != nil {
		t.Fatal(err)
	}
	before, _, _, err := reg.Audit("acme", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()

	reg2 := tenant.New(tenant.Options{Dir: dir, Mode: engine.Refined})
	defer reg2.Close()
	after, total, _, err := reg2.Audit("acme", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) || total != uint64(len(before)) {
		t.Fatalf("recovered %d audit records (total %d), want %d", len(after), total, len(before))
	}
	for i := range after {
		if after[i].Outcome != before[i].Outcome || after[i].Seq != before[i].Seq || !after[i].IsAudit() {
			t.Fatalf("recovered audit record %d = %+v, want %+v", i, after[i], before[i])
		}
	}
}
