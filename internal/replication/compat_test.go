package replication

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// v1Body re-frames pulled records as a primary of the previous version
// served them: one CRC frame per record around its JSON (the shape
// storage.Record's JSON keeps).
func v1Body(t *testing.T, records []storage.Record) []byte {
	var body []byte
	for _, r := range records {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Error(err)
		}
		body = binary.LittleEndian.AppendUint32(body, uint32(len(payload)))
		body = append(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(payload)), payload...)
	}
	return body
}

// TestFollowerAppliesV1PullBody: a follower upgraded before its primary pulls
// JSON frames (log format v1) and applies them — steps replay, a denial's
// audit is adopted, and it converges on the primary's state.
func TestFollowerAppliesV1PullBody(t *testing.T) {
	prim := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	t.Cleanup(func() { prim.Close() })
	if err := prim.InstallPolicy("alpha", workload.ChurnPolicy(16, 16)); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	NewSource(prim, SourceOptions{}).Register(mux)
	var v1Records, snapshots atomic.Int64
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/snapshot") {
			snapshots.Add(1)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if strings.HasSuffix(r.URL.Path, "/pull") && rec.Code == http.StatusOK {
			_, records := storage.DecodeFrames(body)
			v1Records.Add(int64(len(records)))
			body = v1Body(t, records)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(old.Close)

	// Bootstrap first, so that what follows arrives as pulled records.
	folReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	t.Cleanup(func() { folReg.Close() })
	if _, err := prim.Submit("alpha", workload.ChurnGrant(0, 16, 16)); err != nil {
		t.Fatal(err)
	}
	if gen, err := CatchUp(context.Background(), folReg, "alpha", CatchUpOptions{Upstream: old.URL}); err != nil || gen != 1 {
		t.Fatalf("bootstrap: generation %d, %v", gen, err)
	}
	for i := 1; i <= 10; i++ {
		if i == 5 {
			if res, _ := prim.Submit("alpha", command.Grant("nobody", model.User("u0001"), model.Role("c0002"))); res.Outcome != command.Denied {
				t.Fatalf("probe outcome %v", res.Outcome)
			}
		}
		if _, err := prim.Submit("alpha", workload.ChurnGrant(i, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}

	fol := NewFollower(folReg, FollowerOptions{Upstream: old.URL, PollWait: 200 * time.Millisecond, Backoff: 20 * time.Millisecond, SyncWait: 5 * time.Second})
	t.Cleanup(fol.Close)
	if err := fol.Ensure("alpha"); err != nil {
		t.Fatal(err)
	}
	if gen, ok, err := folReg.WaitGenerationCtx(context.Background(), "alpha", 11, 5*time.Second); err != nil || !ok {
		t.Fatalf("follower stuck at generation %d (err %v)", gen, err)
	}
	if v1Records.Load() < 11 || snapshots.Load() != 1 {
		t.Fatalf("%d records crossed as JSON frames, %d snapshot bootstraps (want ≥ 11 and 1)", v1Records.Load(), snapshots.Load())
	}
	pe, _ := prim.EdgeCount("alpha")
	fe, _ := folReg.EdgeCount("alpha")
	if pe != fe {
		t.Fatalf("follower edges %d, primary %d", fe, pe)
	}
	// A replica publishes a pull before its fsync and counts the pull's audit
	// records only after it, so the denial may trail the generation.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		audit, _, _, err := folReg.Audit("alpha", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		denials := 0
		for _, r := range audit {
			if r.Outcome == command.Denied && r.Cmd.Actor == "nobody" {
				denials++
			}
		}
		if denials == 1 {
			return
		}
		if denials > 1 || time.Now().After(deadline) {
			t.Fatalf("follower audit holds %d denials of the probe, want 1: %+v", denials, audit)
		}
	}
}
