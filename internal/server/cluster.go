// Multi-primary cluster plane: placement-driven routing plus the
// /v1/cluster/* control endpoints.
//
// In cluster mode (Config.Placement + Config.NodeID set) every node holds a
// versioned placement map (see internal/placement) assigning each tenant to
// exactly one primary. The ownership check itself is the request core's
// (service.Core.Owner — both planes answer misrouted for a foreign tenant);
// this file is what HTTP does with that answer so that any node serves any
// tenant: body-less requests answer 307 to the owner, and writes (bodies a
// redirect cannot be trusted to replay) are forwarded transparently over a
// per-peer circuit breaker. A forwarded request landing on a node that does
// not own the tenant either — the two nodes hold different map versions —
// gets the core's 421 misrouted verbatim (owner + placement version), the
// same re-point discipline fencing epochs established for failover. Every
// response is stamped with X-Placement-Version so clients and peers learn
// about newer maps passively.
//
// Control plane (all CAS mutations answer 409 api.CodeConflict on a version
// miss, mirroring if_epoch):
//
//	GET  /v1/cluster/placement                       → the node's current map
//	POST /v1/cluster/placement  {map JSON}           → install-if-newer (gossip push)
//	GET  /v1/cluster/nodes                           → node set + self + role/epoch
//	POST /v1/cluster/nodes      {id,addr,if_version} → re-point a node ID at a new
//	                                                   address (post-promotion), CAS + gossip
//	POST /v1/cluster/migrate    {tenant,to,if_version} → live tenant migration (below)
//	POST /v1/cluster/adopt      {tenant,from}        → internal: target-side catch-up
//	POST /v1/cluster/promote, /v1/cluster/repoint    → the role transitions
//
// Migration protocol (source-side orchestration, handleMigrate): bulk
// catch-up on the target while writes keep flowing (adopt #1), fence the
// tenant's writes and drain the in-flight commit group (tenant.FenceWrites),
// final catch-up (adopt #2) which must land exactly on the fenced head, CAS
// the placement override and gossip it, then retire the source copy (drop
// its sessions, evict the resident tenant). Failures before the CAS unfence
// and leave ownership unchanged; after the CAS the new map is the truth and
// the stale source copy is unreachable for writes (the request core checks
// ownership before the registry ever sees a request, on either plane).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/api"
	"adminrefine/internal/placement"
	"adminrefine/internal/replication"
	"adminrefine/internal/service"
	"adminrefine/internal/tenant"
)

// errNoPlacement answers the cluster endpoints of a node holding no map.
var errNoPlacement = errors.New("no placement map installed")

// forwardHopHeaders are the request headers a routed forward preserves.
var forwardHopHeaders = []string{"Content-Type", HeaderRequestDeadline, replication.HeaderEpoch}

// placementMap resolves the node's current placement map (nil outside
// cluster mode or before a map is installed).
func (s *Server) placementMap() *placement.Map {
	return s.placement.Current()
}

// PlacementVersion reports the node's current placement map version (0
// outside cluster mode).
func (s *Server) PlacementVersion() uint64 {
	if m := s.placementMap(); m != nil {
		return m.Version
	}
	return 0
}

// tenantPathName extracts the {tenant} segment of a data-plane path
// (/v1/tenants/{tenant}/...), reporting false for every other path.
func tenantPathName(p string) (string, bool) {
	rest, ok := strings.CutPrefix(p, "/v1/tenants/")
	if !ok || rest == "" {
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// routeToOwner answers a data-plane request for a tenant the core says
// another node owns (misrouted carries the owner's address).
func (s *Server) routeToOwner(w http.ResponseWriter, r *http.Request, misrouted *api.Error) {
	switch {
	case r.Header.Get(api.HeaderRoutedBy) != "":
		// Already forwarded once: the forwarding peer routed by a map that
		// disagrees with ours. Answer the typed re-point signal instead of
		// bouncing the request around the cluster.
		writeError(w, admission.Read, misrouted)
	case r.Method == http.MethodGet || r.Method == http.MethodDelete:
		// Body-less methods redirect: the client re-issues against the owner
		// and its later requests can go direct.
		redirect(w, r, misrouted.Node)
	default:
		s.forwardToOwner(w, r, misrouted.Node)
	}
}

// forwardToOwner proxies one request (method + body + relevant headers) to
// the owning node and relays the response verbatim, gated by the owner's
// circuit breaker so a dead peer costs one fast 503 instead of a connect
// timeout per request. Redirect responses pass through untouched (the
// client follows them exactly as it would a follower's 307).
func (s *Server) forwardToOwner(w http.ResponseWriter, r *http.Request, owner string) {
	br := s.peerBreaker(owner)
	if err := br.Allow(); err != nil {
		s.peerFastFail.Add(1)
		writeError(w, admission.Write, &api.Error{
			Code:       api.CodeUnavailable,
			Message:    fmt.Sprintf("owner %s unreachable (circuit open)", owner),
			RetryAfter: service.RetryAfterSeconds(br.RetryAfter()),
			Node:       owner,
		})
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, nodeURL(owner, r), r.Body)
	if err != nil {
		httpError(w, api.CodeInternal, err)
		return
	}
	for _, h := range forwardHopHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(api.HeaderRoutedBy, s.nodeID)
	resp, err := peerClient.Do(req)
	if err != nil {
		br.Failure()
		api.Write(w, http.StatusBadGateway, &api.Error{
			Code:       api.CodeUnavailable,
			Message:    fmt.Sprintf("forward to owner %s: %v", owner, err),
			RetryAfter: 1,
			Node:       owner,
		})
		return
	}
	br.Success()
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "Location", api.HeaderPlacementVersion, replication.HeaderEpoch} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// peerBreaker resolves (lazily creating) the circuit breaker guarding
// forwards to one peer address.
func (s *Server) peerBreaker(addr string) *admission.Breaker {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	br, ok := s.peerBreakers[addr]
	if !ok {
		br = admission.NewBreaker(admission.BreakerOptions{})
		s.peerBreakers[addr] = br
	}
	return br
}

// clusterEnabled guards the cluster mutations; outside cluster mode they
// answer a typed 400 (GETs answer 404, see handlePlacementGet).
func (s *Server) clusterEnabled(w http.ResponseWriter) bool {
	if s.placement == nil || s.nodeID == "" {
		httpError(w, api.CodeBadRequest, errors.New("node is not in cluster mode (start with -node-id and -cluster-seed)"))
		return false
	}
	return true
}

func (s *Server) handlePlacementGet(w http.ResponseWriter, r *http.Request) {
	m := s.placementMap()
	if m == nil {
		httpError(w, api.CodeNotFound, errNoPlacement)
		return
	}
	data, err := m.Encode()
	if err != nil {
		httpError(w, api.CodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// placementPushResponse acknowledges a gossip push: the node's version after
// the push and whether the pushed map was adopted.
type placementPushResponse struct {
	Version uint64 `json:"version"`
	Adopted bool   `json:"adopted"`
}

func (s *Server) handlePlacementPush(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled(w) {
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, api.CodeBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	m, err := placement.DecodeMap(body)
	if err != nil {
		httpError(w, api.CodeBadRequest, err)
		return
	}
	adopted, err := s.placement.Install(m)
	if err != nil {
		httpError(w, api.CodeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, placementPushResponse{Version: s.PlacementVersion(), Adopted: adopted})
}

// nodesResponse lists the cluster's node set under the current map.
type nodesResponse struct {
	Version uint64           `json:"version"`
	Self    string           `json:"self"`
	Role    string           `json:"role"`
	Epoch   uint64           `json:"epoch"`
	Nodes   []placement.Node `json:"nodes"`
}

func (s *Server) handleNodesGet(w http.ResponseWriter, r *http.Request) {
	m := s.placementMap()
	if m == nil {
		httpError(w, api.CodeNotFound, errNoPlacement)
		return
	}
	writeJSON(w, http.StatusOK, nodesResponse{
		Version: m.Version, Self: s.nodeID, Role: s.Role(), Epoch: s.Epoch(), Nodes: m.Nodes,
	})
}

// NodeRepointRequest re-points a node identity at a new address — the
// cluster-level half of a failover (promote the follower, then point the
// dead primary's ID at it).
type NodeRepointRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// IfVersion is the CAS guard: the mutation proceeds only while the
	// node's placement version is exactly this value (0 = current version,
	// an unconditional single-step bump).
	IfVersion uint64 `json:"if_version,omitempty"`
}

func (s *Server) handleNodeRepoint(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled(w) {
		return
	}
	var req NodeRepointRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, api.CodeBadRequest, err)
		return
	}
	if req.ID == "" || req.Addr == "" {
		httpError(w, api.CodeBadRequest, errors.New("node repoint needs id and addr"))
		return
	}
	addr := strings.TrimRight(req.Addr, "/")
	next, err := s.placementCAS(req.IfVersion, func(m *placement.Map) (*placement.Map, error) {
		return m.WithNodeAddr(req.ID, addr)
	})
	if err != nil {
		s.placementCASError(w, err)
		return
	}
	s.gossipPlacement(next)
	writeJSON(w, http.StatusOK, placementPushResponse{Version: next.Version, Adopted: true})
}

// placementCAS resolves ifVersion (0 = the current version) and applies the
// mutation through the table's compare-and-swap.
func (s *Server) placementCAS(ifVersion uint64, mutate func(*placement.Map) (*placement.Map, error)) (*placement.Map, error) {
	if ifVersion == 0 {
		m := s.placementMap()
		if m == nil {
			return nil, placement.ErrVersionConflict
		}
		ifVersion = m.Version
	}
	return s.placement.CAS(ifVersion, mutate)
}

// placementCASError maps a placement mutation failure onto the envelope:
// version misses are 409 api.CodeConflict (uniform with if_epoch), unknown
// nodes are the client's fault.
func (s *Server) placementCASError(w http.ResponseWriter, err error) {
	switch {
	case placement.IsVersionConflict(err):
		writeError(w, admission.Write, &api.Error{
			Code:             api.CodeConflict,
			Message:          err.Error(),
			PlacementVersion: s.PlacementVersion(),
		})
	case strings.Contains(err.Error(), "unknown node"):
		httpError(w, api.CodeBadRequest, err)
	default:
		httpError(w, api.CodeInternal, err)
	}
}

// gossipPlacement pushes a freshly adopted map to every other node in it,
// best-effort and concurrent: install-if-newer makes the pushes idempotent
// and reordering-proof, and a peer that misses the push learns the version
// from the X-Placement-Version stamp on any later exchange.
func (s *Server) gossipPlacement(m *placement.Map) {
	data, err := m.Encode()
	if err != nil {
		return
	}
	for _, n := range m.Nodes {
		if n.ID == s.nodeID {
			continue
		}
		go func(addr string) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/cluster/placement", strings.NewReader(string(data)))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if resp, err := peerClient.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(n.Addr)
	}
}

// MigrateRequest moves one tenant to another primary.
type MigrateRequest struct {
	Tenant string `json:"tenant"`
	To     string `json:"to"`
	// IfVersion guards the placement flip (0 = the version current when the
	// flip happens).
	IfVersion uint64 `json:"if_version,omitempty"`
}

// MigrateResponse reports a completed migration.
type MigrateResponse struct {
	Tenant string `json:"tenant"`
	Owner  string `json:"owner"`
	// Version is the placement version carrying the new ownership.
	Version uint64 `json:"version"`
	// Generation is the tenant head the target caught up to before the flip
	// — the read-your-writes token that is valid on the new owner.
	Generation uint64 `json:"generation"`
}

// migrateTimeout bounds the whole source-side migration (two catch-up
// rounds + flip).
const migrateTimeout = 2 * time.Minute

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled(w) {
		return
	}
	var req MigrateRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, api.CodeBadRequest, err)
		return
	}
	if !tenant.ValidName(req.Tenant) {
		httpError(w, api.CodeBadRequest, fmt.Errorf("tenant %q: %w", req.Tenant, tenant.ErrBadName))
		return
	}
	m := s.placementMap()
	if m == nil {
		httpError(w, api.CodeNotFound, errNoPlacement)
		return
	}
	target, ok := m.NodeByID(req.To)
	if !ok {
		httpError(w, api.CodeBadRequest, fmt.Errorf("placement: unknown node %q", req.To))
		return
	}
	owner, ok := m.Owner(req.Tenant)
	if !ok {
		httpError(w, api.CodeNotFound, errors.New("placement map has no nodes"))
		return
	}
	if owner.ID != s.nodeID {
		// Only the owner can orchestrate the hand-off (it is the one that
		// must fence and verify the head): forward there, loop-guarded like
		// any routed request.
		if r.Header.Get(api.HeaderRoutedBy) != "" {
			writeError(w, admission.Write, &api.Error{
				Code:             api.CodeMisrouted,
				Message:          fmt.Sprintf("tenant %s is owned by node %s", req.Tenant, owner.ID),
				Node:             owner.Addr,
				PlacementVersion: m.Version,
			})
			return
		}
		body, err := json.Marshal(req)
		if err != nil {
			httpError(w, api.CodeInternal, err)
			return
		}
		r.Body = io.NopCloser(strings.NewReader(string(body)))
		s.forwardToOwner(w, r, owner.Addr)
		return
	}
	if owner.ID == req.To {
		writeJSON(w, http.StatusOK, MigrateResponse{Tenant: req.Tenant, Owner: owner.ID, Version: m.Version})
		return
	}
	self, ok := m.NodeByID(s.nodeID)
	if !ok {
		httpError(w, api.CodeInternal, fmt.Errorf("placement: node %s not in its own map", s.nodeID))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), migrateTimeout)
	defer cancel()

	// Phase 1 — bulk transfer, writes still flowing: the target bootstraps
	// and catches up to (roughly) the head, so the fence window below only
	// covers the trailing delta.
	if _, err := s.adoptOnTarget(ctx, target, req.Tenant, self.Addr); err != nil {
		api.Write(w, http.StatusBadGateway, &api.Error{
			Code:    api.CodeUnavailable,
			Message: fmt.Sprintf("migrate %s: bulk catch-up on %s: %v", req.Tenant, target.ID, err),
			Node:    target.Addr,
		})
		return
	}

	// Phase 2 — fence and drain: after FenceWrites returns, no commit group
	// can land, so the head we read is the head the target must reach.
	if err := s.reg.FenceWrites(req.Tenant); err != nil {
		writeError(w, admission.Write, s.core.Fail(admission.Write, err))
		return
	}
	head, _, err := s.reg.ReplicaPosition(req.Tenant)
	if err != nil {
		s.reg.UnfenceWrites(req.Tenant)
		writeError(w, admission.Write, s.core.Fail(admission.Write, err))
		return
	}
	gen, err := s.adoptOnTarget(ctx, target, req.Tenant, self.Addr)
	if err != nil {
		s.reg.UnfenceWrites(req.Tenant)
		api.Write(w, http.StatusBadGateway, &api.Error{
			Code:    api.CodeUnavailable,
			Message: fmt.Sprintf("migrate %s: final catch-up on %s: %v", req.Tenant, target.ID, err),
			Node:    target.Addr,
		})
		return
	}
	if gen != head {
		s.reg.UnfenceWrites(req.Tenant)
		httpError(w, api.CodeInternal,
			fmt.Errorf("migrate %s: target caught up to %d, fenced head is %d", req.Tenant, gen, head))
		return
	}

	// Phase 3 — flip: the CAS is the commit point. A version conflict means
	// another placement change won the race; nothing moved, the fence lifts.
	next, err := s.placementCAS(req.IfVersion, func(cur *placement.Map) (*placement.Map, error) {
		return cur.WithOverride(req.Tenant, req.To)
	})
	if err != nil {
		s.reg.UnfenceWrites(req.Tenant)
		s.placementCASError(w, err)
		return
	}

	// Phase 4 — propagate and retire. The stale local copy stays on disk as
	// a fossil (the routing front answers for this tenant from now on); its
	// sessions die here exactly as they would in a failover.
	s.gossipPlacement(next)
	if tbl, ok := s.core.Sessions().Peek(req.Tenant); ok {
		tbl.Drain()
	}
	s.reg.UnfenceWrites(req.Tenant)
	s.reg.Evict(req.Tenant)
	writeJSON(w, http.StatusOK, MigrateResponse{
		Tenant: req.Tenant, Owner: req.To, Version: next.Version, Generation: head,
	})
}

// AdoptRequest is the internal target-side verb of a migration: catch this
// tenant up from the source primary.
type AdoptRequest struct {
	Tenant string `json:"tenant"`
	From   string `json:"from"`
}

// adoptResponse reports the generation the catch-up stopped at.
type adoptResponse struct {
	Generation uint64 `json:"generation"`
}

func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled(w) {
		return
	}
	var req AdoptRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, api.CodeBadRequest, err)
		return
	}
	if !tenant.ValidName(req.Tenant) || req.From == "" {
		httpError(w, api.CodeBadRequest, errors.New("adopt needs a tenant and a from address"))
		return
	}
	gen, err := replication.CatchUp(r.Context(), s.reg, req.Tenant, replication.CatchUpOptions{
		Upstream: strings.TrimRight(req.From, "/"),
		Epoch:    s.core.Epoch(),
	})
	if err != nil {
		if tenant.IsNotFound(err) {
			writeError(w, admission.Write, s.core.Fail(admission.Write, err))
			return
		}
		api.Write(w, http.StatusBadGateway, &api.Error{
			Code:    api.CodeUnavailable,
			Message: fmt.Sprintf("adopt %s from %s: %v", req.Tenant, req.From, err),
		})
		return
	}
	writeJSON(w, http.StatusOK, adoptResponse{Generation: gen})
}

// adoptOnTarget asks the target node to catch the tenant up from this node.
func (s *Server) adoptOnTarget(ctx context.Context, target placement.Node, name, selfAddr string) (uint64, error) {
	body, err := json.Marshal(AdoptRequest{Tenant: name, From: selfAddr})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target.Addr+"/v1/cluster/adopt", strings.NewReader(string(body)))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := peerClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, api.Decode(resp.StatusCode, payload)
	}
	var out adoptResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		return 0, fmt.Errorf("decode adopt response: %w", err)
	}
	return out.Generation, nil
}

// stampPlacement writes the node's placement version onto a response header
// set (a no-op outside cluster mode).
func (s *Server) stampPlacement(h http.Header) {
	if m := s.placementMap(); m != nil {
		h.Set(api.HeaderPlacementVersion, strconv.FormatUint(m.Version, 10))
	}
}
