package replication

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
)

// upstream is the one client of a Source's two endpoints, shared by the
// steady-state Follower and the one-shot CatchUp. What differs between them
// is a field here.
type upstream struct {
	base string
	// client runs pulls and snap runs snapshot transfers: the same transport,
	// but a follower's snap carries no overall timeout (see snapshotTimeout).
	client, snap *http.Client
	// epoch is the node's fencing-epoch handle: a response epoch above it is
	// adopted durably BEFORE any record or snapshot from that response is
	// applied, so local stamps always match the source's.
	epoch *Epoch
	// sendEpoch presents our epoch with every request (a source behind it
	// demotes itself) and adopts the epoch a 421 answers with. A follower and
	// its upstream are rivals within one lineage; CatchUp's source is not.
	sendEpoch bool
	// refuseBehind rejects an answer from a source behind our epoch: a deposed
	// primary that somehow still answers 200 must not feed us history.
	refuseBehind bool
	// breaker gates every round trip (nil admits all). Any HTTP response counts
	// as upstream-alive; only transport failures feed it.
	breaker *admission.Breaker
}

// pullResult is one decoded pull response.
type pullResult struct {
	records        []storage.Record
	head           uint64
	edges          int
	snapshotNeeded bool
}

// get performs one GET against the source and runs the fencing protocol on
// the answer. The caller closes the body of a returned response.
func (u *upstream) get(ctx context.Context, c *http.Client, what, name, query string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.base+"/v1/replicate/"+name+"/"+what+query, nil)
	if err != nil {
		return nil, err
	}
	if u.sendEpoch {
		req.Header.Set(HeaderEpoch, strconv.FormatUint(u.epoch.Current(), 10))
	}
	if err := u.breaker.Allow(); err != nil {
		return nil, fmt.Errorf("replication: %s %s: %w", what, name, err)
	}
	resp, err := c.Do(req)
	if err != nil {
		u.breaker.Failure()
		return nil, err
	}
	u.breaker.Success()
	if err := u.check(what, resp); err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("replication: %s %s: %w", what, name, err)
	}
	return resp, nil
}

// check maps the answer's status onto the follower's sentinels and settles
// the epochs.
func (u *upstream) check(what string, resp *http.Response) error {
	peer, err := parseEpoch(resp.Header.Get(HeaderEpoch))
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return tenant.ErrNotFound
	case resp.StatusCode == http.StatusMisdirectedRequest:
		// A deposed ex-primary answering 421 still teaches us the current epoch.
		if err == nil && u.sendEpoch {
			u.epoch.Observe(peer)
		}
		return fmt.Errorf("upstream at epoch %s: %w", resp.Header.Get(HeaderEpoch), ErrUpstreamFenced)
	case resp.StatusCode != http.StatusOK && (resp.StatusCode != http.StatusGone || what != "pull"):
		return fmt.Errorf("upstream status %d", resp.StatusCode)
	case err != nil:
		return fmt.Errorf("bad %s header", HeaderEpoch)
	}
	if own := u.epoch.Current(); peer < own && u.refuseBehind {
		return fmt.Errorf("upstream epoch %d behind ours %d: %w", peer, own, ErrUpstreamFenced)
	} else if peer > own {
		if _, err := u.epoch.Observe(peer); err != nil {
			return fmt.Errorf("adopt epoch %d: %w", peer, err)
		}
	}
	return nil
}

// pull performs one GET against the pull endpoint, long-polling for wait.
func (u *upstream) pull(ctx context.Context, name string, afterSeq, afterEpoch uint64, wait time.Duration) (pullResult, error) {
	resp, err := u.get(ctx, u.client, "pull", name,
		fmt.Sprintf("?after_seq=%d&after_epoch=%d&wait_ms=%d", afterSeq, afterEpoch, wait.Milliseconds()))
	if err != nil {
		return pullResult{}, err
	}
	defer resp.Body.Close()
	res := pullResult{edges: -1, snapshotNeeded: resp.StatusCode == http.StatusGone}
	if res.head, err = strconv.ParseUint(resp.Header.Get(HeaderHead), 10, 64); err != nil {
		return pullResult{}, fmt.Errorf("replication: pull %s: bad %s header", name, HeaderHead)
	}
	if edges, err := strconv.Atoi(resp.Header.Get(HeaderEdges)); err == nil {
		res.edges = edges
	}
	if res.snapshotNeeded {
		return res, nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPullBody))
	if err != nil {
		return pullResult{}, fmt.Errorf("replication: pull %s: read body: %w", name, err)
	}
	// A truncated transfer (or a peer exceeding our read limit, which a
	// well-behaved source never does — it caps batches in whole frames) still
	// carries real history in its valid prefix: apply it so the replica makes
	// progress, and let the next pull fetch the rest. Only a body with no
	// whole frame at all is a hard fault.
	n, records := storage.DecodeFrames(body)
	if n != len(body) && len(records) == 0 {
		return pullResult{}, fmt.Errorf("replication: pull %s: %d trailing bytes undecodable", name, len(body)-n)
	}
	res.records = records
	return res, nil
}

// snapshot fetches the source's bootstrap document and installs it locally,
// returning the position it covers. The policy member decodes straight into
// its wire form, once; a document or policy that does not decode installs
// nothing.
func (u *upstream) snapshot(ctx context.Context, reg *tenant.Registry, name string) (seq, seqEpoch uint64, err error) {
	resp, err := u.get(ctx, u.snap, "snapshot", name, "")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var doc SnapshotPayload
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxPullBody)).Decode(&doc); err != nil {
		return 0, 0, fmt.Errorf("replication: snapshot %s: decode: %w", name, err)
	}
	pol, err := doc.Policy.Policy()
	if err != nil {
		return 0, 0, fmt.Errorf("replication: snapshot %s: policy: %w", name, err)
	}
	if err := reg.InstallReplicaSnapshot(name, pol, doc.Seq, doc.SeqEpoch, doc.Audit); err != nil {
		return 0, 0, err
	}
	return doc.Seq, doc.SeqEpoch, nil
}

// apply feeds pulled records to the local registry and returns the pull
// cursor after them: the generation and the epoch stamped on the record now
// at the head — records keep their primary's stamp through the apply, so the
// cursor matches the local WAL exactly.
func apply(reg *tenant.Registry, name string, records []storage.Record, epoch uint64) (uint64, uint64, error) {
	gen, err := reg.ApplyReplicated(name, records)
	if err != nil {
		return 0, 0, err
	}
	for i := len(records) - 1; i >= 0; i-- {
		if r := records[i]; !r.IsAudit() && uint64(r.Seq) <= gen {
			return gen, r.Epoch, nil
		}
	}
	return gen, epoch, nil
}
