package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/engine"
	"adminrefine/internal/placement"
	"adminrefine/internal/replication"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// clusterNode is one in-process primary of a test cluster.
type clusterNode struct {
	id    string
	reg   *tenant.Registry
	srv   *Server
	ts    *httptest.Server
	table *placement.Table
}

// newCluster stands up n in-process primaries sharing one placement map.
// The map is installed after the sockets exist (addresses aren't known
// earlier), exactly like a rolling -cluster-seed deployment.
func newCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	pnodes := make([]placement.Node, n)
	for i := range nodes {
		id := "n" + strconv.Itoa(i+1)
		dir := t.TempDir()
		nodeStore, _, _, err := storage.Open(dir+"/.node", storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reg := tenant.New(tenant.Options{Dir: dir, Mode: engine.Refined})
		table := placement.NewTable(nil, nodeStore.SetPlacement)
		srv := NewWithConfig(Config{
			Registry:  reg,
			Epoch:     replication.NewEpoch(nodeStore.Epoch(), nodeStore.SetEpoch),
			Placement: table,
			NodeID:    id,
		})
		ts := httptest.NewServer(srv)
		nodes[i] = &clusterNode{id: id, reg: reg, srv: srv, ts: ts, table: table}
		pnodes[i] = placement.Node{ID: id, Addr: ts.URL}
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
			reg.Close()
			nodeStore.Close()
		})
	}
	m, err := placement.New(1, pnodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		if _, err := node.table.Install(m); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

// ownedBy finds a tenant name the shared map assigns to the given node ID.
func ownedBy(t *testing.T, m *placement.Map, id string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := "t" + strconv.Itoa(i)
		if o, ok := m.Owner(name); ok && o.ID == id {
			return name
		}
	}
	t.Fatalf("no tenant hashes to %s", id)
	return ""
}

// noRedirect returns a client that surfaces 3xx instead of following it.
func noRedirect() *http.Client {
	return &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
}

func TestClusterEndpointsAndCAS(t *testing.T) {
	nodes := newCluster(t, 3)
	m := nodes[0].table.Current()

	// GET placement returns the canonical map.
	var got placement.Map
	if code := doJSON(t, http.MethodGet, nodes[0].ts.URL+"/v1/cluster/placement", nil, &got); code != http.StatusOK || got.Version != m.Version {
		t.Fatalf("get placement: %d v%d", code, got.Version)
	}
	var ns nodesResponse
	if code := doJSON(t, http.MethodGet, nodes[1].ts.URL+"/v1/cluster/nodes", nil, &ns); code != http.StatusOK ||
		ns.Self != "n2" || ns.Role != "primary" || len(ns.Nodes) != 3 {
		t.Fatalf("get nodes: %d %+v", code, ns)
	}

	// Node re-point under CAS: a stale if_version answers 409 conflict; the
	// correct one bumps the version and gossips to the survivors (n3 "died",
	// so its re-pointed address is dark — n2 must still hear about it).
	var envl struct {
		Error api.Error `json:"error"`
	}
	if code := doJSON(t, http.MethodPost, nodes[0].ts.URL+"/v1/cluster/nodes",
		map[string]any{"id": "n3", "addr": "http://elsewhere:1", "if_version": m.Version + 41}, &envl); code != http.StatusConflict ||
		envl.Error.Code != api.CodeConflict {
		t.Fatalf("stale repoint: %d %+v", code, envl.Error)
	}
	var push placementPushResponse
	if code := doJSON(t, http.MethodPost, nodes[0].ts.URL+"/v1/cluster/nodes",
		map[string]any{"id": "n3", "addr": "http://elsewhere:1", "if_version": m.Version}, &push); code != http.StatusOK ||
		push.Version != m.Version+1 {
		t.Fatalf("repoint: %d %+v", code, push)
	}
	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].srv.PlacementVersion() != m.Version+1 {
		if time.Now().After(deadline) {
			t.Fatalf("gossip never reached n2 (at v%d)", nodes[1].srv.PlacementVersion())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n3, ok := nodes[1].table.Current().NodeByID("n3"); !ok || n3.Addr != "http://elsewhere:1" {
		t.Fatalf("gossiped repoint lost: %+v", n3)
	}

	// Unknown node and non-cluster servers answer typed 400s.
	if code := doJSON(t, http.MethodPost, nodes[0].ts.URL+"/v1/cluster/migrate",
		map[string]any{"tenant": "x", "to": "nope"}, &envl); code != http.StatusBadRequest || envl.Error.Code != api.CodeBadRequest {
		t.Fatalf("migrate to unknown node: %d %+v", code, envl.Error)
	}
	plain := newTestServer(t)
	if code := doJSON(t, http.MethodPost, plain.URL+"/v1/cluster/migrate",
		map[string]any{"tenant": "x", "to": "n1"}, &envl); code != http.StatusBadRequest || envl.Error.Code != api.CodeBadRequest {
		t.Fatalf("migrate outside cluster mode: %d %+v", code, envl.Error)
	}
	if code := doJSON(t, http.MethodGet, plain.URL+"/v1/cluster/placement", nil, &envl); code != http.StatusNotFound || envl.Error.Code != api.CodeNotFound {
		t.Fatalf("placement outside cluster mode: %d %+v", code, envl.Error)
	}
}

func TestLiveMigrationMovesTenantIntact(t *testing.T) {
	nodes := newCluster(t, 2)
	m := nodes[0].table.Current()
	name := ownedBy(t, m, "n1")

	if code := putPolicy(t, nodes[0].ts.URL, name, workload.ChurnPolicy(8, 8)); code != http.StatusNoContent {
		t.Fatalf("put policy: %d", code)
	}
	var gen uint64
	for i := 0; i < 20; i++ {
		var sub struct {
			Generation uint64 `json:"generation"`
		}
		if code := doJSON(t, http.MethodPost, nodes[0].ts.URL+"/v1/tenants/"+name+"/submit",
			wire(t, workload.ChurnGrant(i, 8, 8)), &sub); code != http.StatusOK {
			t.Fatalf("submit %d: %d", i, code)
		}
		gen = sub.Generation
	}
	var before auditResponse
	if code := doJSON(t, http.MethodGet, nodes[0].ts.URL+"/v1/tenants/"+name+"/audit?limit=1000", nil, &before); code != http.StatusOK {
		t.Fatalf("audit before: %d", code)
	}

	// Drive the migration THROUGH THE NON-OWNER: the request forwards to the
	// owner, which orchestrates catch-up, fence, flip, gossip, retire.
	var mig MigrateResponse
	if code := doJSON(t, http.MethodPost, nodes[1].ts.URL+"/v1/cluster/migrate",
		map[string]any{"tenant": name, "to": "n2"}, &mig); code != http.StatusOK {
		t.Fatalf("migrate: %d %+v", code, mig)
	}
	if mig.Owner != "n2" || mig.Version != m.Version+1 || mig.Generation != gen {
		t.Fatalf("migrate response %+v (want owner n2 v%d gen %d)", mig, m.Version+1, gen)
	}
	// Both nodes converge on the new map (the source CASed it, the target
	// hears the gossip push).
	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].srv.PlacementVersion() != mig.Version {
		if time.Now().After(deadline) {
			t.Fatalf("target never adopted v%d (at v%d)", mig.Version, nodes[1].srv.PlacementVersion())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The audit trail moved byte-identically (ASeq is the node-local audit
	// sequence — zeroed on both sides before comparing, as replicated trails
	// renumber it).
	var after auditResponse
	if code := doJSON(t, http.MethodGet, nodes[1].ts.URL+"/v1/tenants/"+name+"/audit?limit=1000", nil, &after); code != http.StatusOK {
		t.Fatalf("audit after: %d", code)
	}
	if len(after.Records) != len(before.Records) || after.Generation != before.Generation {
		t.Fatalf("audit %d records gen %d, want %d records gen %d",
			len(after.Records), after.Generation, len(before.Records), before.Generation)
	}
	for i := range before.Records {
		a, b := before.Records[i], after.Records[i]
		a.ASeq, b.ASeq = 0, 0
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("audit record %d diverged:\n  src %s\n  dst %s", i, aj, bj)
		}
	}

	// Writes keep working through either node and land on the new owner;
	// generations continue from the migrated head (nothing was lost or
	// replayed twice).
	for i, base := range []string{nodes[0].ts.URL, nodes[1].ts.URL} {
		var sub struct {
			Generation uint64 `json:"generation"`
		}
		if code := doJSON(t, http.MethodPost, base+"/v1/tenants/"+name+"/submit",
			wire(t, workload.ChurnGrant(100+i, 8, 8)), &sub); code != http.StatusOK || sub.Generation != gen+uint64(i)+1 {
			t.Fatalf("post-migrate submit via node %d: %d gen %d want %d", i, code, sub.Generation, gen+uint64(i)+1)
		}
	}
	// The source copy retired (evicted; the registry may still recover it
	// from disk as a fossil, but the routing front never lets a request at
	// it: its own map says n2 owns the tenant now).
	var mig2 MigrateResponse
	if code := doJSON(t, http.MethodPost, nodes[0].ts.URL+"/v1/cluster/migrate",
		map[string]any{"tenant": name, "to": "n2"}, &mig2); code != http.StatusOK || mig2.Owner != "n2" {
		t.Fatalf("idempotent re-migrate: %d %+v", code, mig2)
	}

	// A stale if_version CAS-misses with 409 conflict.
	var envl struct {
		Error api.Error `json:"error"`
	}
	if code := doJSON(t, http.MethodPost, nodes[1].ts.URL+"/v1/cluster/migrate",
		map[string]any{"tenant": name, "to": "n1", "if_version": 1}, &envl); code != http.StatusConflict ||
		envl.Error.Code != api.CodeConflict {
		t.Fatalf("stale-version migrate: %d %+v", code, envl.Error)
	}
}

// decodeInto decodes one response body as JSON and returns the status.
func decodeInto(t *testing.T, resp *http.Response, v any) int {
	t.Helper()
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}
