package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/constraints"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
	"adminrefine/internal/tenant"
)

// TestAuditGolden: GET …/audit for a fixed history — every outcome, an SSD
// veto's reason, a nested privilege, names made of the key syntax's own
// characters, non-ASCII and HTML-escaped ones — answers exactly the bytes of
// testdata/audit.golden, both as served and after the trail is recovered from
// the log. The golden file was captured from the release whose log stored
// records as JSON: the audit shape is an API, whatever the log's encoding.
func TestAuditGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "audit.golden"))
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.New()
	pol.Assign("jane", "HR")
	nested := model.Grant(model.Role("HR"), model.Revoke(model.User("bob"), model.Role("qa")))
	for _, p := range []model.Privilege{
		model.Grant(model.User("bob"), model.Role("eng")),
		model.Grant(model.User("bob"), model.Role("qa")),
		model.Grant(model.User("a,b%"), model.Role("ü→ß(1)")),
		model.Revoke(model.User("a,b%"), model.Role("ü→ß(1)")),
		nested,
	} {
		if _, err := pol.GrantPrivilege("HR", p); err != nil {
			t.Fatal(err)
		}
	}
	cons, err := constraints.NewSet(constraints.Constraint{Name: "eng-qa", Kind: constraints.SSD, Roles: []string{"eng", "qa"}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	serve := func() (*httptest.Server, func()) {
		reg := tenant.New(tenant.Options{Dir: dir, Mode: engine.Refined, Constraints: cons})
		ts := httptest.NewServer(NewWithConfig(Config{Registry: reg, Constraints: cons}))
		return ts, func() { ts.Close(); reg.Close() }
	}
	audit := func(ts *httptest.Server) []byte {
		resp, err := http.Get(ts.URL + "/v1/tenants/acme/audit")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("audit: status %d, %v", resp.StatusCode, err)
		}
		return body
	}

	reg := tenant.New(tenant.Options{Dir: dir, Mode: engine.Refined, Constraints: cons})
	if err := reg.InstallPolicy("acme", pol); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	ts, stop := serve()
	history := wire(t,
		command.Grant("jane", model.User("bob"), model.Role("eng")),        // applied
		command.Grant("bob", model.User("joe"), model.Role("eng")),         // denied
		command.Grant("jane", model.User("bob"), model.Role("qa")),         // vetoed by eng-qa
		command.Grant("jane", model.User("bob"), model.Role("eng")),        // no change
		command.Grant("jane", model.User("a,b%"), model.Role("ü→ß(1)")),    // applied
		command.Revoke("jane", model.User("a,b%"), model.Role("ü→ß(1)")),   // applied
		command.Grant("jane", model.Role("HR"), nested.Dst),                // applied, nested
		command.Grant("jane", model.Role("eng"), model.User("bob")),        // ill-formed
		command.Grant("<&>", model.Role("r:1"), model.Perm("read", "t,1")), // denied
	)
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/submit", history, nil); code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	if got := audit(ts); !bytes.Equal(got, want) {
		t.Fatalf("audit as served:\n%s\nwant testdata/audit.golden:\n%s", got, want)
	}
	stop()
	ts, stop = serve()
	defer stop()
	if got := audit(ts); !bytes.Equal(got, want) {
		t.Fatalf("audit recovered from the log:\n%s\nwant testdata/audit.golden:\n%s", got, want)
	}
}
