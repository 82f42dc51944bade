package replication

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/fault"
	"adminrefine/internal/model"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

func TestEpochHandle(t *testing.T) {
	// A nil handle is the permanently-zero epoch of pre-failover nodes:
	// reads and observations no-op, promotion is refused.
	var nilE *Epoch
	if got := nilE.Current(); got != 0 {
		t.Fatalf("nil epoch reads %d", got)
	}
	if got, err := nilE.Observe(7); got != 0 || err != nil {
		t.Fatalf("nil observe: %d, %v", got, err)
	}
	if _, err := nilE.Advance(); !errors.Is(err, errNilEpoch) {
		t.Fatalf("nil advance: %v, want errNilEpoch", err)
	}

	// Advance persists before the new value becomes observable; a failed
	// persist leaves the epoch unchanged — an epoch that could vanish in a
	// crash would let two nodes mint writes under the same fencing token.
	var persisted []uint64
	fail := errors.New("disk full")
	var persistErr error
	e := NewEpoch(3, func(v uint64) error {
		if persistErr != nil {
			return persistErr
		}
		persisted = append(persisted, v)
		return nil
	})
	if got, err := e.Advance(); got != 4 || err != nil {
		t.Fatalf("advance: %d, %v", got, err)
	}
	persistErr = fail
	if got, err := e.Advance(); !errors.Is(err, fail) || got != 4 {
		t.Fatalf("failed advance returned %d, %v; the epoch must not move", got, err)
	}
	if e.Current() != 4 {
		t.Fatalf("epoch moved to %d past a failed persist", e.Current())
	}
	persistErr = nil

	// Observe adopts only forward, also durably-first.
	if got, err := e.Observe(2); got != 4 || err != nil {
		t.Fatalf("observe backward: %d, %v", got, err)
	}
	if got, err := e.Observe(9); got != 9 || err != nil {
		t.Fatalf("observe forward: %d, %v", got, err)
	}
	persistErr = fail
	if got, err := e.Observe(12); !errors.Is(err, fail) || got != 9 {
		t.Fatalf("failed observe returned %d, %v", got, err)
	}
	want := fmt.Sprint([]uint64{4, 9})
	if fmt.Sprint(persisted) != want {
		t.Fatalf("persisted %v, want %v", persisted, want)
	}
}

// TestEpochDurableInStore closes the loop with the node-level store: an
// advanced epoch survives a reopen (the KindEpoch control record is always
// fsynced), which is what lets a SIGKILLed ex-primary come back knowing it
// was deposed.
func TestEpochDurableInStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), ".node")
	st, _, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEpoch(st.Epoch(), st.SetEpoch)
	if _, err := e.Advance(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Observe(5); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, _, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Epoch(); got != 5 {
		t.Fatalf("recovered epoch %d, want 5", got)
	}
	e2 := NewEpoch(st2.Epoch(), st2.SetEpoch)
	if got, err := e2.Advance(); got != 6 || err != nil {
		t.Fatalf("advance after reopen: %d, %v", got, err)
	}
}

// TestSourceFencesOnHigherPeerEpoch pins the source half of the fencing
// protocol: a request carrying a higher epoch proves the node was deposed —
// it must invoke OnFenced (or adopt the epoch itself) and answer 421 with
// its raised epoch, for both the pull and the snapshot endpoint, before
// shipping a single record.
func TestSourceFencesOnHigherPeerEpoch(t *testing.T) {
	reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	t.Cleanup(func() { reg.Close() })
	if err := reg.InstallPolicy("alpha", workload.ChurnPolicy(8, 8)); err != nil {
		t.Fatal(err)
	}

	epoch := NewEpoch(0, nil)
	var fencedWith []uint64
	src := NewSource(reg, SourceOptions{Epoch: epoch, OnFenced: func(peer uint64) {
		fencedWith = append(fencedWith, peer)
		epoch.Observe(peer)
	}})
	mux := http.NewServeMux()
	src.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	get := func(path, peerEpoch string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if peerEpoch != "" {
			req.Header.Set(HeaderEpoch, peerEpoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// An equal-epoch peer is served.
	if resp := get("/v1/replicate/alpha/pull?after_seq=0", "0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("equal-epoch pull: status %d", resp.StatusCode)
	}

	// A higher-epoch peer demotes the source on the spot: 421 carrying the
	// adopted epoch, OnFenced told which epoch deposed it.
	resp := get("/v1/replicate/alpha/pull?after_seq=0", "3")
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("higher-epoch pull: status %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderEpoch); got != "3" {
		t.Fatalf("421 carries epoch %q, want the adopted 3", got)
	}
	if fmt.Sprint(fencedWith) != fmt.Sprint([]uint64{3}) {
		t.Fatalf("OnFenced calls: %v", fencedWith)
	}

	// The demoted node keeps refusing even same-epoch peers once serving is
	// off (the server's fence() flips it), on both endpoints.
	src.SetServing(false)
	for _, path := range []string{"/v1/replicate/alpha/pull?after_seq=0", "/v1/replicate/alpha/snapshot"} {
		if resp := get(path, "3"); resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("%s on demoted node: status %d, want 421", path, resp.StatusCode)
		}
	}

	// A garbled epoch header is the client's fault, not a fencing event.
	if resp := get("/v1/replicate/alpha/pull?after_seq=0", "banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad epoch header: status %d, want 400", resp.StatusCode)
	}
	if len(fencedWith) != 1 {
		t.Fatalf("OnFenced fired again: %v", fencedWith)
	}
}

// TestSourceRefusalsAreTheEnvelope: every refusal of the replication
// endpoints is internal/api's typed envelope under an unchanged status, the
// 421 carrying the epoch in its body as well as its header.
func TestSourceRefusalsAreTheEnvelope(t *testing.T) {
	reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	t.Cleanup(func() { reg.Close() })
	if err := reg.InstallPolicy("alpha", workload.ChurnPolicy(8, 8)); err != nil {
		t.Fatal(err)
	}
	src := NewSource(reg, SourceOptions{Epoch: NewEpoch(4, nil)})
	mux := http.NewServeMux()
	src.Register(mux)
	for _, c := range []struct {
		path, peerEpoch string
		serving         bool
		status          int
		code            string
	}{
		{"/v1/replicate/nosuch/pull?after_seq=0", "", true, http.StatusNotFound, api.CodeNotFound},
		{"/v1/replicate/nosuch/snapshot", "", true, http.StatusNotFound, api.CodeNotFound},
		{"/v1/replicate/alpha/pull?after_seq=x", "", true, http.StatusBadRequest, api.CodeBadRequest},
		{"/v1/replicate/alpha/pull?after_epoch=x", "", true, http.StatusBadRequest, api.CodeBadRequest},
		{"/v1/replicate/alpha/pull?wait_ms=-1", "", true, http.StatusBadRequest, api.CodeBadRequest},
		{"/v1/replicate/alpha/pull?after_seq=0", "banana", true, http.StatusBadRequest, api.CodeBadRequest},
		{"/v1/replicate/alpha/pull?after_seq=0", "4", false, http.StatusMisdirectedRequest, api.CodeFenced},
		{"/v1/replicate/alpha/snapshot", "", false, http.StatusMisdirectedRequest, api.CodeFenced},
	} {
		src.SetServing(c.serving)
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		if c.peerEpoch != "" {
			req.Header.Set(HeaderEpoch, c.peerEpoch)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		e := api.Decode(rec.Code, rec.Body.Bytes())
		if rec.Code != c.status || e.Code != c.code || e.Message == "" {
			t.Fatalf("%s: %d %+v, want %d and code %q", c.path, rec.Code, e, c.status, c.code)
		}
		if c.code == api.CodeFenced && (e.Epoch != 4 || rec.Header().Get(HeaderEpoch) != "4") {
			t.Fatalf("%s: fenced at epoch %d, header %q, want 4", c.path, e.Epoch, rec.Header().Get(HeaderEpoch))
		}
	}
}

// TestFollowerRefusesStaleUpstream pins the follower half: a response epoch
// below the follower's own proves the upstream is a deposed ex-primary, and
// the follower must refuse its records (ErrUpstreamFenced) rather than
// extend a fenced history.
func TestFollowerRefusesStaleUpstream(t *testing.T) {
	prim := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	t.Cleanup(func() { prim.Close() })
	if err := prim.InstallPolicy("alpha", workload.ChurnPolicy(8, 8)); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	NewSource(prim, SourceOptions{Epoch: NewEpoch(0, nil)}).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	folReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	t.Cleanup(func() { folReg.Close() })
	fol := NewFollower(folReg, FollowerOptions{
		Upstream: ts.URL,
		PollWait: 100 * time.Millisecond,
		Backoff:  10 * time.Millisecond,
		SyncWait: 2 * time.Second,
		Epoch:    NewEpoch(2, nil), // the follower already lives in epoch 2
	})
	t.Cleanup(fol.Close)

	err := fol.Ensure("alpha")
	if err == nil {
		t.Fatal("follower synced from an upstream two epochs behind it")
	}
	if !IsUpstreamFenced(err) {
		t.Fatalf("ensure error %v, want ErrUpstreamFenced", err)
	}
}

// TestFollowerConvergesThroughFlakyTransport drives replication through a
// fault.Transport that drops requests, severs response bodies mid-transfer
// and injects delays on a seeded schedule — including the very first
// bootstrap round-trips — and asserts the follower still converges to the
// primary's exact state. A failing seed replays bit-for-bit.
func TestFollowerConvergesThroughFlakyTransport(t *testing.T) {
	const roles, users = 16, 16
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			prim := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
			t.Cleanup(func() { prim.Close() })
			mux := http.NewServeMux()
			NewSource(prim, SourceOptions{}).Register(mux)
			ts := httptest.NewServer(mux)
			t.Cleanup(ts.Close)

			if err := prim.InstallPolicy("alpha", workload.ChurnPolicy(roles, users)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if _, err := prim.Submit("alpha", workload.ChurnGrant(i, users, roles)); err != nil {
					t.Fatal(err)
				}
			}

			// Guarantee the bootstrap path itself is hit: the first request
			// drops outright, the second delivers a severed body.
			plan := fault.SeededNetPlan(seed, 5000, 0.2, 0.1, 0.1, 5*time.Millisecond)
			plan.At(0, fault.NetFault{Kind: fault.NetDrop})
			plan.At(1, fault.NetFault{Kind: fault.NetSever, Keep: 25})
			tr := fault.NewTransport(nil, plan)

			folReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
			t.Cleanup(func() { folReg.Close() })
			fol := NewFollower(folReg, FollowerOptions{
				Upstream:   ts.URL,
				PollWait:   100 * time.Millisecond,
				Backoff:    5 * time.Millisecond,
				SyncWait:   2 * time.Second,
				Client:     &http.Client{Timeout: 5 * time.Second, Transport: tr},
				JitterSeed: seed,
			})
			t.Cleanup(fol.Close)

			converge := func(want uint64) {
				t.Helper()
				waitFor(t, fmt.Sprintf("generation %d through the flaky transport", want), func() bool {
					fol.Ensure("alpha") // first syncs may fault; the loop retries
					gen, ok, err := folReg.WaitGenerationCtx(context.Background(), "alpha", want, 100*time.Millisecond)
					return err == nil && ok && gen >= want
				})
			}
			converge(30)

			// Keep writing while the transport misbehaves.
			for i := 30; i < 60; i++ {
				if _, err := prim.Submit("alpha", workload.ChurnGrant(i, users, roles)); err != nil {
					t.Fatal(err)
				}
			}
			converge(60)

			probes := []command.Command{
				workload.ChurnGrant(61, users, roles),
				command.Grant("nobody", model.User("u0001"), model.Role("c0002")),
			}
			for i, c := range probes {
				pr, err1 := prim.Authorize("alpha", c)
				fr, err2 := folReg.Authorize("alpha", c)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if pr.OK != fr.OK {
					t.Fatalf("probe %d: primary %v, follower %v", i, pr.OK, fr.OK)
				}
			}
			if tr.Step() < 3 {
				t.Fatalf("transport consumed %d request indexes: the fault seam is not wired", tr.Step())
			}
		})
	}
}
