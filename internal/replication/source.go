// Package replication streams per-tenant write-ahead logs from a primary
// rbacd process to follower processes over HTTP — horizontal read fan-out
// for the authorization service. The primary mounts a Source: a long-poll
// pull endpoint whose body is the log's own record frames (storage.EncodeFrame
// / storage.DecodeFrames) plus a snapshot bootstrap endpoint for followers
// that have no local state or fell behind a compaction. Each follower runs a
// Follower: per-tenant pull loops that feed pulled record batches through
// the engine on a local registry (readers never observe a half-applied
// batch) and persist them to a local WAL, so a SIGKILLed follower resumes
// from its own log.
//
// A primary shows readers nothing that is not durable. A replica's rule is
// the other half of that promise: visible at a replica ⇒ durable at its
// primary (a record is served to pullers only after the primary's fsync);
// durable at the replica ⇒ before tenant.ApplyReplicated returns (so every
// position a pull cursor, CatchUp or a promotion carries is durable here
// too, while readers need not wait for this node's fsync); a failed late
// fsync ⇒ snapshot install, never a step back.
//
// Consistency is generation-token based, after the paper's generation-
// ordered refinement semantics: every write on the primary has a generation,
// followers apply the same records at the same generations, and a reader
// holding a write's (tenant, generation) token gets read-your-writes on any
// replica by demanding min_generation (wait bounded, else 409) — no global
// coordination, staleness bounded exactly the way the decision cache bounds
// validity.
//
// Wire protocol (mounted under the primary's /v1 mux; every request and
// response carries the sender's fencing epoch in X-Replication-Epoch):
//
//	GET /v1/replicate/{tenant}/pull?after_seq=N&after_epoch=T&wait_ms=M
//	    200: body = the WAL's frames of the records with seq > N (binary;
//	         JSON from a primary on log format v1: upgrade followers first)
//	         X-Replication-Head: primary generation
//	         X-Replication-Edges: policy edge count at head (state checksum)
//	         X-Replication-Epoch: primary fencing epoch (follower adopts)
//	    410: the log was compacted past N, or the follower's record at N is
//	         not on the primary's history (after_epoch mismatch — a fork
//	         across a failover) — bootstrap from /snapshot
//	    421: the serving node is not the primary of the follower's epoch
//	         (demoted, fenced, or just deposed by this very request) — the
//	         follower must re-point at the current primary
//	    404: no such tenant
//	GET /v1/replicate/{tenant}/snapshot
//	    200: {"seq":G,"seq_epoch":T,"policy":{...}} — install, then pull
//	         from after_seq=G&after_epoch=T
//
// Every non-2xx body is internal/api's error envelope: bad_request (400),
// not_found (404), fenced carrying the epoch (421), internal (500). A
// follower reads only the status, so nodes on either side of that change
// interoperate.
//
// The bootstrap document is JSON (policy.Wire, sorted and deterministic),
// not the binary snapshot.bin the store keeps on disk: that file carries
// one node's vertex ids, which no other node needs to share, and the
// follower's install (tenant.InstallReplicaSnapshot → Store.CompactAt)
// writes its own.
package replication

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/policy"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
)

// Header names of the pull response.
const (
	// HeaderHead carries the primary's generation for the tenant, measured
	// on one snapshot together with HeaderEdges.
	HeaderHead = "X-Replication-Head"
	// HeaderEdges carries the policy edge count at head — the cheap state
	// checksum a caught-up follower verifies (see tenant.PullResult.Edges).
	HeaderEdges = "X-Replication-Edges"
	// HeaderEpoch carries the sender's fencing epoch: followers send theirs
	// on every pull/snapshot request, the source answers with its own. A
	// request epoch above the source's proves the source was deposed — it
	// demotes before answering 421 (see SourceOptions.OnFenced). A response
	// epoch above the follower's is adopted durably before any record from
	// that response is applied.
	HeaderEpoch = "X-Replication-Epoch"
)

const (
	// maxPollWait caps how long one pull may long-poll server-side regardless
	// of the wait_ms the follower asked for.
	maxPollWait = 30 * time.Second
	// maxBatchBytes caps one pull response's framed payload, comfortably
	// under the follower's read limit. A backlog larger than the cap ships
	// across several pulls — the follower re-pulls from its new position
	// immediately — so a response is never truncated mid-frame.
	maxBatchBytes = 4 << 20
)

// SourceOptions configures the primary's log-shipping endpoints.
type SourceOptions struct {
	// Epoch is the node's fencing epoch handle (nil reads as a permanent
	// epoch 0 — the pre-failover deployments).
	Epoch *Epoch
	// OnFenced, when non-nil, is invoked (before the 421 goes out) when a
	// request proves a higher epoch exists: this node was deposed and must
	// demote. The callback adopts the epoch and stops serving writes (see
	// server.Server).
	OnFenced func(peer uint64)
}

// Source serves a registry's per-tenant WALs to pulling followers.
type Source struct {
	reg  *tenant.Registry
	opts SourceOptions
	// serving gates the endpoints: a follower or demoted node keeps them
	// mounted but answers 421 + its epoch, which is exactly the re-point
	// signal a stray puller needs. Promotion flips it on (see server).
	serving atomic.Bool
	// done, when cancelled, aborts in-flight long-polls: http.Server.Shutdown
	// waits for active handlers but does not cancel their request contexts,
	// so a draining primary must wake its parked pulls itself (see Close).
	done context.Context
	stop context.CancelFunc
}

// NewSource builds the log-shipping source over a registry, initially
// serving.
func NewSource(reg *tenant.Registry, opts SourceOptions) *Source {
	s := &Source{reg: reg, opts: opts}
	s.done, s.stop = context.WithCancel(context.Background())
	s.serving.Store(true)
	return s
}

// SetServing flips whether the endpoints serve (primary) or answer 421
// (follower / demoted node).
func (s *Source) SetServing(on bool) { s.serving.Store(on) }

// gate runs the fencing protocol for one request: it demotes this node if
// the peer proves a higher epoch exists, then rejects the request with 421
// unless this node is the serving primary. It reports whether the handler
// may proceed.
func (s *Source) gate(w http.ResponseWriter, r *http.Request) bool {
	if peer, err := parseEpoch(r.Header.Get(HeaderEpoch)); err != nil {
		badRequest(w, "bad "+HeaderEpoch)
		return false
	} else if peer > s.opts.Epoch.Current() {
		if s.opts.OnFenced != nil {
			s.opts.OnFenced(peer)
		} else {
			s.opts.Epoch.Observe(peer)
		}
		s.fenced(w)
		return false
	}
	if !s.serving.Load() {
		s.fenced(w)
		return false
	}
	return true
}

// fenced answers 421 Misdirected Request with this node's (possibly just
// raised) epoch — the re-point signal.
func (s *Source) fenced(w http.ResponseWriter) {
	epoch := s.opts.Epoch.Current()
	w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
	api.Write(w, http.StatusMisdirectedRequest, &api.Error{
		Code: api.CodeFenced, Message: fmt.Sprintf("not the primary of epoch %d", epoch), Epoch: epoch,
	})
}

// parseEpoch decodes an epoch header value ("" = 0, the pre-epoch peers).
func parseEpoch(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	return strconv.ParseUint(v, 10, 64)
}

// Close wakes every in-flight long-poll so a graceful server shutdown is
// not held hostage by parked follower pulls. Idempotent.
func (s *Source) Close() { s.stop() }

// Register mounts the replication endpoints on mux.
func (s *Source) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/replicate/{tenant}/pull", s.handlePull)
	mux.HandleFunc("GET /v1/replicate/{tenant}/snapshot", s.handleSnapshot)
}

// SnapshotPayload is the bootstrap document: the tenant's policy at one
// generation (plus the fencing epoch of the record at that generation) and
// the primary's retained audit window. Its shape extends the JSON the
// store once kept on disk (storage's legacy snapshot.json).
type SnapshotPayload struct {
	Seq uint64 `json:"seq"`
	// SeqEpoch is the fencing epoch of the record at Seq; the follower
	// resumes pulling from after_seq=Seq&after_epoch=SeqEpoch.
	SeqEpoch uint64           `json:"seq_epoch,omitempty"`
	Policy   policy.Wire      `json:"policy"`
	Audit    []storage.Record `json:"audit,omitempty"`
}

func (s *Source) handlePull(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w, r) {
		return
	}
	name := r.PathValue("tenant")
	q := r.URL.Query()
	afterSeq, err := strconv.ParseUint(q.Get("after_seq"), 10, 64)
	if err != nil && q.Get("after_seq") != "" {
		badRequest(w, "bad after_seq")
		return
	}
	afterEpoch, err := parseEpoch(q.Get("after_epoch"))
	if err != nil {
		badRequest(w, "bad after_epoch")
		return
	}
	wait := time.Duration(0)
	if ms := q.Get("wait_ms"); ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || n < 0 {
			badRequest(w, "bad wait_ms")
			return
		}
		wait = min(time.Duration(n)*time.Millisecond, maxPollWait)
	}
	// The long-poll aborts when the follower disconnects (request context)
	// or the primary drains (Close).
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.done, cancel)()
	res, err := s.reg.PullWAL(ctx, name, afterSeq, afterEpoch, wait)
	if err != nil {
		sourceError(w, err)
		return
	}
	w.Header().Set(HeaderHead, strconv.FormatUint(res.Head, 10))
	w.Header().Set(HeaderEdges, strconv.Itoa(res.Edges))
	w.Header().Set(HeaderEpoch, strconv.FormatUint(s.opts.Epoch.Current(), 10))
	if res.SnapshotNeeded {
		// The log no longer covers after_seq: the follower must bootstrap.
		w.WriteHeader(http.StatusGone)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	var buf []byte
	for _, rec := range res.Records {
		if buf, err = storage.EncodeFrame(buf, rec); err != nil {
			sourceError(w, err)
			return
		}
		if len(buf) >= maxBatchBytes {
			// Whole frames only, never a mid-frame cut: the follower applies
			// this batch and immediately re-pulls the rest from its new
			// position (Head in the header shows it the remaining lag).
			break
		}
	}
	w.Write(buf)
}

func (s *Source) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w, r) {
		return
	}
	name := r.PathValue("tenant")
	seq, seqEpoch, policyJSON, audit, err := s.reg.SnapshotDump(name)
	if err != nil {
		sourceError(w, err)
		return
	}
	auditJSON, err := json.Marshal(audit)
	if err != nil {
		sourceError(w, err)
		return
	}
	w.Header().Set(HeaderEpoch, strconv.FormatUint(s.opts.Epoch.Current(), 10))
	w.Header().Set("Content-Type", "application/json")
	// Assemble by hand so the policy JSON passes through byte-exact. The
	// audit window rides along so a bootstrapping follower adopts the
	// primary's trail instead of starting blind (older followers ignore it).
	fmt.Fprintf(w, `{"seq":%d,"seq_epoch":%d,"policy":%s,"audit":%s}`, seq, seqEpoch, policyJSON, auditJSON)
}

// sourceError answers a registry or codec failure in the unified envelope.
func sourceError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, api.CodeInternal
	switch {
	case tenant.IsBadName(err):
		status, code = http.StatusBadRequest, api.CodeBadRequest
	case tenant.IsNotFound(err):
		status, code = http.StatusNotFound, api.CodeNotFound
	}
	api.Write(w, status, &api.Error{Code: code, Message: err.Error()})
}

func badRequest(w http.ResponseWriter, msg string) {
	api.Write(w, http.StatusBadRequest, &api.Error{Code: api.CodeBadRequest, Message: msg})
}
