package ladder

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"adminrefine/bench/loadgen"
	"adminrefine/bench/workload"
	"adminrefine/internal/admission"
	"adminrefine/internal/engine"
	"adminrefine/internal/parser"
	"adminrefine/internal/policy"
	"adminrefine/internal/replication"
	"adminrefine/internal/server"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
	"adminrefine/internal/wire"
)

// files times and counts a registry's WAL traffic from outside, through
// tenant.Options.OpenFile. While a tracer is attached (serial rungs) every
// write and fsync is also a span under the call that caused it.
type files struct {
	mu     sync.Mutex
	tracer *Tracer
	opens  int64
	writes int64
	bytes  int64
	// truncs counts truncations to the bare log header: each is one
	// compaction (or policy install) folding the log into the snapshot.
	truncs  int64
	writeNS []time.Duration
	syncNS  []time.Duration
}

func (f *files) open(path string, flag int, perm os.FileMode) (storage.File, error) {
	file, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.opens++
	f.mu.Unlock()
	return &recFile{File: file, f: f}, nil
}

// reset clears the counters between rungs.
func (f *files) reset(tracer *Tracer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tracer = tracer
	f.opens, f.writes, f.bytes, f.truncs = 0, 0, 0, 0
	f.writeNS, f.syncNS = nil, nil
}

type recFile struct {
	*os.File
	f *files
}

func (r *recFile) timed(name string, samples *[]time.Duration, call func() error) error {
	f := r.f
	f.mu.Lock()
	tr := f.tracer
	f.mu.Unlock()
	var id int32
	if tr != nil {
		id = tr.Begin(name, -1)
	}
	start := time.Now()
	err := call()
	took := time.Since(start)
	if tr != nil {
		tr.End(id)
	}
	f.mu.Lock()
	*samples = append(*samples, took)
	f.mu.Unlock()
	return err
}

func (r *recFile) Write(p []byte) (n int, err error) {
	err = r.timed("storage.write", &r.f.writeNS, func() error {
		n, err = r.File.Write(p)
		return err
	})
	r.f.mu.Lock()
	r.f.writes++
	r.f.bytes += int64(n)
	r.f.mu.Unlock()
	return n, err
}

func (r *recFile) Sync() error {
	return r.timed("storage.fsync", &r.f.syncNS, r.File.Sync)
}

func (r *recFile) Truncate(size int64) error {
	r.f.mu.Lock()
	r.f.truncs++
	r.f.mu.Unlock()
	return r.File.Truncate(size)
}

// The daemon's defaults (cmd/rbacd flags) the in-process node mirrors.
const (
	registryShards    = 8
	maxInflightReads  = 256
	maxInflightWrites = 64
	writeQueue        = 256
	maxSubmitQueue    = 1024
	minGenWait        = 2 * time.Second
	maxRequestTime    = 10 * time.Second
)

// node is an in-process rbacd: the same registry, server and wire server the
// daemon wires together, on loopback listeners, with the WAL opened through
// the recording file wrapper.
type node struct {
	reg   *tenant.Registry
	srv   *server.Server
	adm   *admission.Controller
	hsrv  *http.Server
	wsrv  *wire.Server
	http  string
	wire  string
	files *files
	// fol replicates from the primary when the node is a follower.
	fol *replication.Follower
}

func startNode(dir string, w workload.Workload, upstream string) (*node, error) {
	n := &node{files: new(files)}
	n.reg = tenant.New(tenant.Options{
		Dir: dir, Mode: engine.Refined, Sync: true,
		MaxResident: w.MaxResident, CompactEvery: w.CompactEvery,
		OpenFile: n.files.open, MaxQueuedSubmits: maxSubmitQueue,
	})
	n.adm = admission.New(admission.Config{
		Read:  admission.Limits{MaxInFlight: maxInflightReads},
		Write: admission.Limits{MaxInFlight: maxInflightWrites, MaxQueue: writeQueue},
	})
	cfg := server.Config{Registry: n.reg, MinGenWait: minGenWait, MaxRequestTime: maxRequestTime, Admission: n.adm}
	if upstream != "" {
		n.fol = replication.NewFollower(n.reg, replication.FollowerOptions{Upstream: upstream, PollWait: 10 * time.Second})
		cfg.Follower = n.fol
	}
	n.srv = server.NewWithConfig(cfg)
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.hsrv = &http.Server{Handler: n.srv}
	go n.hsrv.Serve(hln)
	n.http = "http://" + hln.Addr().String()
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.wsrv = wire.NewServer(n.srv.WireConfig())
	go n.wsrv.Serve(wln)
	n.wire = wln.Addr().String()
	return n, nil
}

func (n *node) close() {
	if n.wsrv != nil {
		n.wsrv.Close()
	}
	if n.hsrv != nil {
		n.hsrv.Close()
	}
	n.srv.Close()
	n.reg.Close()
}

// cluster is the in-process twin of the workload's daemons: a primary and,
// for a follower workload, a follower replicating from it.
type cluster struct {
	w        workload.Workload
	primary  *node
	follower *node
}

func (c *cluster) readNode() *node {
	if c.follower != nil {
		return c.follower
	}
	return c.primary
}

func (c *cluster) close() {
	if c.follower != nil {
		c.follower.close()
	}
	c.primary.close()
}

// fixture parses a fresh copy of the workload's policy from the same RPL the
// daemon is sent; engines and registries take ownership of what they are
// given.
func fixture(w workload.Workload) *policy.Policy {
	doc, err := parser.Parse(loadgen.PolicyRPL(w.Spec.Roles, w.Spec.Users))
	if err != nil {
		panic("ladder: fixture does not parse: " + err.Error())
	}
	return doc.Policy
}

// startCluster stands the in-process nodes up under dir and provisions every
// tenant with the workload's fixture, parsed from the same RPL the daemon is
// sent.
func startCluster(dir string, w workload.Workload) (*cluster, error) {
	c := &cluster{w: w}
	var err error
	if c.primary, err = startNode(filepath.Join(dir, "primary"), w, ""); err != nil {
		return nil, err
	}
	if w.Follower {
		if c.follower, err = startNode(filepath.Join(dir, "follower"), w, c.primary.http); err != nil {
			c.primary.close()
			return nil, err
		}
	}
	for i := 0; i < w.Spec.Tenants; i++ {
		name := loadgen.TenantName(i)
		if err := c.primary.reg.InstallPolicy(name, fixture(w)); err != nil {
			c.close()
			return nil, fmt.Errorf("provision %s: %w", name, err)
		}
		if c.follower != nil {
			if err := c.follower.fol.Ensure(name); err != nil {
				c.close()
				return nil, fmt.Errorf("replicate %s: %w", name, err)
			}
		}
	}
	return c, nil
}
