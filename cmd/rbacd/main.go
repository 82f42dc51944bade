// Command rbacd is the multi-tenant RBAC authorization daemon: it serves the
// HTTP/JSON API of internal/server over a sharded tenant registry rooted at
// a data directory. Each tenant is an isolated policy with its own WAL and
// snapshot; tenants recover lazily on first touch and survive crashes (kill
// -9 included) by WAL replay.
//
//	rbacd -addr :8270 -data ./rbacd-data -mode refined
//
// Provision a tenant and drive it:
//
//	curl -X PUT  localhost:8270/v1/tenants/acme/policy --data-binary @policy.rpl
//	curl -X POST localhost:8270/v1/tenants/acme/authorize -d '{"commands":[...]}'
//	curl -X POST localhost:8270/v1/tenants/acme/submit    -d '{"commands":[...]}'
//	curl -X POST localhost:8270/v1/tenants/acme/sessions  -d '{"user":"diana","activate":["nurse"]}'
//	curl -X POST localhost:8270/v1/tenants/acme/check     -d '{"session":1,"checks":[{"action":"read","object":"t1"}]}'
//	curl         localhost:8270/v1/tenants/acme/audit
//	curl         localhost:8270/v1/tenants/acme/stats
//	curl         localhost:8270/healthz
//
// A second, binary data plane can listen beside HTTP (-wire-addr :8271):
// the same authorize/check/submit/session operations over persistent framed
// connections with pipelining and server-side batching, sharing admission,
// deadlines, generation tokens and epoch fencing with the HTTP plane (see
// internal/wire and ARCHITECTURE.md).
//
// Sessions (the paper's §2–3 monitor sessions) are node-local runtime
// state; the audit trail is durable in the WAL and replicated. Optional
// separation-of-duty constraints (-constraints rules.json) guard every
// write (SSD) and every session activation (DSD).
//
// Horizontal read fan-out: a primary streams its per-tenant WAL to follower
// processes, which serve authorize/explain/stats from replayed engines and
// answer writes with a 307 redirect to the primary,
//
//	rbacd -addr :8270 -data ./primary-data                           # primary
//	rbacd -addr :8271 -data ./replica-data -role follower \
//	      -upstream http://localhost:8270                            # follower
//
// with read-your-writes via generation tokens: every write response carries
// the tenant's generation, and a read passing it back as min_generation
// either waits (bounded) for the follower to catch up or gets 409 — never a
// stale answer.
//
// Multi-primary sharding: with -node-id and -cluster-seed the daemon joins a
// cluster of primaries that splits the tenant space by a versioned
// consistent-hash placement map (see internal/placement). Any node answers
// any tenant — foreign reads 307 to the owner, foreign writes forward
// transparently — and POST /v1/cluster/migrate moves a tenant live,
//
//	rbacd -addr :8270 -data ./a-data -node-id n1 \
//	      -cluster-seed n1=http://localhost:8270,n2=http://localhost:8271
//	rbacd -addr :8271 -data ./b-data -node-id n2 \
//	      -cluster-seed n1=http://localhost:8270,n2=http://localhost:8271
//
// with the adopted map persisted in the node store, gossiped between nodes,
// and stamped on every response as X-Placement-Version. A follower shares
// its primary's -node-id: it serves that identity's reads and redirects its
// writes upstream, and a promotion re-points the identity's address (POST
// /v1/cluster/nodes) without moving any tenants.
//
// On SIGINT/SIGTERM the daemon drains in-flight requests, compacts every
// resident tenant and exits; on SIGKILL the WAL recovers the state on the
// next start — followers resume pulling from their local WAL position.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/constraints"
	"adminrefine/internal/engine"
	"adminrefine/internal/placement"
	"adminrefine/internal/replication"
	"adminrefine/internal/server"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
	wirep "adminrefine/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses flags, starts the daemon and blocks until shutdown. It prints
// "rbacd: listening on ADDR" once the listener is bound (with the resolved
// port, so -addr :0 is scriptable — the end-to-end tests depend on it).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rbacd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8270", "listen address (host:port; port 0 picks a free port)")
		wireAddr     = fs.String("wire-addr", "", "binary wire-protocol listen address alongside HTTP (host:port; port 0 picks a free port; empty disables)")
		dataDir      = fs.String("data", "rbacd-data", "root data directory; each tenant persists in its own subdirectory")
		mode         = fs.String("mode", "refined", "authorization regime: strict (literal Definition 5) or refined (ordering-based §4.1)")
		shards       = fs.Int("shards", 8, "lock-striped tenant shards")
		maxResident  = fs.Int("max-resident", 0, "max resident tenants per shard, LRU-evicted beyond it (0 = unlimited)")
		compactEvery = fs.Int("compact-every", 1024, "WAL records between tenant compactions (negative disables)")
		sync         = fs.Bool("sync", false, "fsync every WAL append (crash-durable against power loss, slower)")
		cacheSlots   = fs.Int("cache-slots", 0, "tenant engine decision cache: negative disables it; any other value caches every interned command's verdict")
		role         = fs.String("role", "primary", "replication role: primary (serves writes + WAL stream) or follower (replicated reads, writes redirect upstream)")
		upstream     = fs.String("upstream", "", "primary base URL (required with -role follower), e.g. http://host:8270")
		pollWait     = fs.Duration("poll-wait", 10*time.Second, "follower: long-poll bound per replication pull")
		minGenWait   = fs.Duration("min-gen-wait", 2*time.Second, "bound on how long a min_generation read waits for the replica to catch up before 409")
		autoPromote  = fs.Bool("promote-on-upstream-loss", false, "follower: self-promote to primary after the upstream health probe fails -probe-threshold consecutive times")
		probeEvery   = fs.Duration("probe-interval", time.Second, "follower: upstream health-probe period (with -promote-on-upstream-loss)")
		probeAfter   = fs.Int("probe-threshold", 5, "follower: consecutive failed probes that depose the upstream (with -promote-on-upstream-loss)")
		consPath     = fs.String("constraints", "", `separation-of-duty constraint file (JSON [{"name","kind":"ssd"|"dsd","roles":[...],"n":2},...]); SSD guards every write, DSD guards session activations`)

		// Multi-primary cluster mode: a stable node identity plus a seed node
		// list build the version-1 placement map; restarts recover whatever
		// newer map the node last persisted (the recovered map always wins
		// over the seed — install-if-newer).
		nodeID        = fs.String("node-id", "", "this node's stable placement identity (cluster mode; a follower shares its primary's id)")
		clusterSeed   = fs.String("cluster-seed", "", "comma-separated id=url list seeding the version-1 placement map, e.g. n1=http://a:8270,n2=http://b:8270 (requires -node-id)")
		placementSeed = fs.Uint64("placement-seed", 1, "consistent-hash seed of the placement ring; every node of one cluster must agree")

		// Overload protection: every data-plane request runs under a deadline
		// and an admission slot; saturation sheds 429 (reads) / 503 (writes)
		// with Retry-After instead of queueing unboundedly.
		maxRequestTime = fs.Duration("max-request-time", 10*time.Second, "per-request deadline budget for data-plane requests; clients may tighten it with X-Request-Deadline (0 disables)")
		maxReads       = fs.Int("max-inflight-reads", 256, "concurrently admitted read-class requests (0 = unlimited)")
		readQueue      = fs.Int("read-queue", 0, "reads allowed to wait for a slot beyond -max-inflight-reads; excess sheds 429 on arrival")
		maxWrites      = fs.Int("max-inflight-writes", 64, "concurrently admitted write-class requests (0 = unlimited)")
		writeQueue     = fs.Int("write-queue", 256, "writes allowed to wait for a slot beyond -max-inflight-writes; excess sheds 503 on arrival")
		maxSubmitQueue = fs.Int("max-submit-queue", 1024, "per-tenant commit-group queue hard cap; submits beyond it shed 503 (0 = unlimited)")
		readHeaderTime = fs.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout: slowloris bound on request headers")
		readTimeout    = fs.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout: bound on reading a whole request")
		idleTimeout    = fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout: keep-alive connection reaper")
		maxHeaderBytes = fs.Int("max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var emode engine.Mode
	switch *mode {
	case "strict":
		emode = engine.Strict
	case "refined":
		emode = engine.Refined
	default:
		return fmt.Errorf("rbacd: unknown -mode %q (want strict or refined)", *mode)
	}
	switch *role {
	case "primary":
		if *upstream != "" {
			return fmt.Errorf("rbacd: -upstream is only meaningful with -role follower")
		}
		if *autoPromote {
			return fmt.Errorf("rbacd: -promote-on-upstream-loss is only meaningful with -role follower")
		}
	case "follower":
		if *upstream == "" {
			return fmt.Errorf("rbacd: -role follower requires -upstream")
		}
	default:
		return fmt.Errorf("rbacd: unknown -role %q (want primary or follower)", *role)
	}

	var cons *constraints.Set
	if *consPath != "" {
		data, err := os.ReadFile(*consPath)
		if err != nil {
			return fmt.Errorf("rbacd: read -constraints: %w", err)
		}
		if cons, err = constraints.ParseJSON(data); err != nil {
			return fmt.Errorf("rbacd: %w", err)
		}
	}

	// The node-level store at <data>/.node holds one durable fact: the
	// fencing epoch (a '.'-prefixed name can never collide with a tenant —
	// see tenant.ValidName). Promotion advances it, observing a higher peer
	// epoch adopts it, and a restart recovers it — so a SIGKILLed ex-primary
	// comes back still knowing it was deposed.
	nodeStore, _, _, err := storage.Open(filepath.Join(*dataDir, ".node"), storage.Options{})
	if err != nil {
		return fmt.Errorf("rbacd: open node store: %w", err)
	}
	epoch := replication.NewEpoch(nodeStore.Epoch(), nodeStore.SetEpoch)

	// Cluster mode: recover the node's persisted placement map, overlay the
	// seed map (adopted only when the store held nothing newer), and refuse
	// to start as a cluster node with no map or an identity outside it.
	var placeTable *placement.Table
	if *nodeID != "" || *clusterSeed != "" {
		if *nodeID == "" {
			nodeStore.Close()
			return fmt.Errorf("rbacd: -cluster-seed requires -node-id")
		}
		var recovered *placement.Map
		if data := nodeStore.Placement(); len(data) > 0 {
			if recovered, err = placement.DecodeMap(data); err != nil {
				nodeStore.Close()
				return fmt.Errorf("rbacd: recover placement map: %w", err)
			}
		}
		placeTable = placement.NewTable(recovered, nodeStore.SetPlacement)
		if *clusterSeed != "" {
			nodes, err := parseClusterSeed(*clusterSeed)
			if err != nil {
				nodeStore.Close()
				return err
			}
			seedMap, err := placement.New(*placementSeed, nodes)
			if err != nil {
				nodeStore.Close()
				return fmt.Errorf("rbacd: %w", err)
			}
			if _, err := placeTable.Install(seedMap); err != nil {
				nodeStore.Close()
				return fmt.Errorf("rbacd: persist placement map: %w", err)
			}
		}
		m := placeTable.Current()
		if m == nil {
			nodeStore.Close()
			return fmt.Errorf("rbacd: -node-id %s has no placement map (pass -cluster-seed on first start)", *nodeID)
		}
		if _, ok := m.NodeByID(*nodeID); !ok {
			nodeStore.Close()
			return fmt.Errorf("rbacd: -node-id %s is not in the placement map (version %d)", *nodeID, m.Version)
		}
	}

	reg := tenant.New(tenant.Options{
		Dir:              *dataDir,
		Mode:             emode,
		Shards:           *shards,
		MaxResident:      *maxResident,
		CompactEvery:     *compactEvery,
		Sync:             *sync,
		CacheSlots:       *cacheSlots,
		Constraints:      cons,
		Epoch:            epoch.Current,
		MaxQueuedSubmits: *maxSubmitQueue,
	})

	// One breaker guards the whole upstream relationship: the follower's
	// pull/bootstrap client records its failures, and while open the
	// server's write-forwarding path answers 503 + Retry-After instead of a
	// 307 to a dead primary. Repoint resets it along with the upstream.
	breaker := admission.NewBreaker(admission.BreakerOptions{})
	followerOpts := replication.FollowerOptions{
		PollWait: *pollWait,
		Epoch:    epoch,
		Breaker:  breaker,
	}
	var follower *replication.Follower
	if *role == "follower" {
		followerOpts.Upstream = strings.TrimRight(*upstream, "/")
		follower = replication.NewFollower(reg, followerOpts)
	}
	// The server owns the follower from here (promotion closes it, repoint
	// swaps it); closeAll only tears down what outlives the handler. Close
	// the registry before the node store so no applier writes after the
	// epoch handle's backing store is gone.
	closeAll := func() error {
		err := reg.Close()
		if cerr := nodeStore.Close(); err == nil {
			err = cerr
		}
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	clusterNote := ""
	if placeTable != nil {
		clusterNote = fmt.Sprintf(" node=%s placement=v%d", *nodeID, placeTable.Current().Version)
	}
	fmt.Fprintf(out, "rbacd: listening on %s (mode=%s data=%s role=%s%s)\n", ln.Addr(), emode, *dataDir, *role, clusterNote)

	handler := server.NewWithConfig(server.Config{
		Registry:              reg,
		Follower:              follower,
		MinGenWait:            *minGenWait,
		Constraints:           cons,
		Epoch:                 epoch,
		FollowerOptions:       followerOpts,
		PromoteOnUpstreamLoss: *autoPromote,
		ProbeInterval:         *probeEvery,
		ProbeThreshold:        *probeAfter,
		MaxRequestTime:        *maxRequestTime,
		Admission: admission.New(admission.Config{
			Read:  admission.Limits{MaxInFlight: *maxReads, MaxQueue: *readQueue},
			Write: admission.Limits{MaxInFlight: *maxWrites, MaxQueue: *writeQueue},
		}),
		Breaker:   breaker,
		Placement: placeTable,
		NodeID:    *nodeID,
	})
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTime,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}
	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(ln) }()

	// The binary data plane listens beside HTTP on the same machinery:
	// identical admission, deadlines, generation tokens and epoch fencing,
	// just without the JSON.
	var wireSrv *wirep.Server
	if *wireAddr != "" {
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			srv.Close()
			handler.Close()
			closeAll()
			return err
		}
		fmt.Fprintf(out, "rbacd: wire listening on %s\n", wln.Addr())
		wireSrv = wirep.NewServer(handler.WireConfig())
		go func() {
			if werr := wireSrv.Serve(wln); werr != nil {
				errc <- fmt.Errorf("rbacd: wire: %w", werr)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		fmt.Fprintf(out, "rbacd: %v, draining\n", sig)
		// Drain the binary plane first: Close wakes blocked connection
		// reads, lets every request already on the wire finish against live
		// sessions, flushes the responses and waits — so no in-flight binary
		// call sees the session drop below.
		if wireSrv != nil {
			wireSrv.Close()
			fmt.Fprintf(out, "rbacd: wire drained\n")
		}
		// Drop open sessions (node-local state dies with the node, before
		// the registry compacts below) and wake parked replication
		// long-polls, or they eat the drain budget (Shutdown waits for
		// handlers without cancelling them).
		if n := handler.DrainSessions(); n > 0 {
			fmt.Fprintf(out, "rbacd: dropped %d open sessions\n", n)
		}
		handler.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			closeAll()
			return err
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			if wireSrv != nil {
				wireSrv.Close()
			}
			handler.Close()
			closeAll()
			return err
		}
	}
	return closeAll()
}

// parseClusterSeed parses the -cluster-seed node list ("id=url,id=url,...").
func parseClusterSeed(s string) ([]placement.Node, error) {
	var nodes []placement.Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("rbacd: bad -cluster-seed entry %q (want id=url)", part)
		}
		nodes = append(nodes, placement.Node{ID: id, Addr: strings.TrimRight(addr, "/")})
	}
	if len(nodes) == 0 {
		return nil, errors.New("rbacd: -cluster-seed has no nodes")
	}
	return nodes, nil
}
