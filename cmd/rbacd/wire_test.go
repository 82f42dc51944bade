package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/wire"
	"adminrefine/internal/workload"
)

// wireDaemon is a daemon started with -wire-addr: the HTTP handle plus the
// binary listener's resolved address.
type wireDaemon struct {
	*daemon
	wireAddr string
}

// startWireDaemon launches rbacd with a binary data-plane listener and
// scrapes both announced addresses ("rbacd: listening on ..." comes first,
// "rbacd: wire listening on ..." after).
func startWireDaemon(t *testing.T, args ...string) *wireDaemon {
	t.Helper()
	args = append(args, "-wire-addr", "127.0.0.1:0")
	cmd := exec.Command(os.Args[0], "-test.run=^TestRbacdHelperProcess$")
	cmd.Env = append(os.Environ(), "RBACD_HELPER=1", "RBACD_ARGS="+strings.Join(args, "\n"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	d := &wireDaemon{daemon: &daemon{cmd: cmd}}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if _, addr, ok := strings.Cut(line, "wire listening on "); ok {
			d.wireAddr = strings.TrimSpace(addr)
		} else if _, addr, ok := strings.Cut(line, "listening on "); ok {
			host, _, _ := strings.Cut(addr, " ")
			d.base = "http://" + host
		}
		if d.base != "" && d.wireAddr != "" {
			go func() {
				for sc.Scan() {
				}
			}()
			return d
		}
	}
	t.Fatalf("daemon exited before announcing its addresses (scan err: %v)", sc.Err())
	return nil
}

// putChurnPolicy provisions the churn fixture: every ChurnGrant command is
// authorized, u0 sits atop an 8-role chain whose bottom holds ("read","obj").
func (d *wireDaemon) putChurnPolicy(t *testing.T, name string) {
	t.Helper()
	d.putPolicy(t, name, workload.ChurnPolicy(8, 8))
}

// wantCode asserts err carries the given typed api code.
func wantCode(t *testing.T, err error, code string) *api.Error {
	t.Helper()
	var e *api.Error
	if !errors.As(err, &e) || e.Code != code {
		t.Fatalf("error %v, want api code %q", err, code)
	}
	return e
}

// TestWireDaemonEndToEnd drives a live rbacd's binary port end to end: the
// -wire-addr listener serves the daemon's one request core (a durable submit,
// its token read back, a session checked), and SIGTERM with a request still
// parked on the wire must answer and flush it (the drain) before the
// connection closes and the process exits cleanly. The contract's scenarios
// — deadlines, staleness, sheds, fencing, misroutes — run over this
// transport in internal/server's conformance suite; the daemon's admission
// and fencing flags are proven at process level by the HTTP e2es, which
// cross the same core.
func TestWireDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	d := startWireDaemon(t, "-addr", "127.0.0.1:0", "-data", t.TempDir(), "-min-gen-wait", "400ms")
	d.putChurnPolicy(t, "acme")

	c, err := wire.Dial(d.wireAddr, wire.ClientOptions{Conns: 2, CallTimeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if epoch, err := c.Ping(); err != nil || epoch != 0 {
		t.Fatalf("ping: epoch %d, err %v, want epoch 0", epoch, err)
	}

	var req wire.Request
	var resp wire.Response
	req.Op = wire.OpSubmit
	req.Tenant = "acme"
	req.Cmds = append(req.Cmds[:0], workload.ChurnGrant(0, 8, 8))
	if err := c.Do(&req, &resp); err != nil {
		t.Fatalf("wire submit: %v", err)
	}
	if len(resp.Steps) != 1 || resp.Steps[0].Outcome != wire.OutcomeApplied || resp.Generation != 1 {
		t.Fatalf("wire submit: steps %+v generation %d, want applied at generation 1", resp.Steps, resp.Generation)
	}
	gen := resp.Generation

	// Read-your-writes: the authorize carries the acked generation back.
	req.Reset()
	req.Op = wire.OpAuthorize
	req.Tenant = "acme"
	req.MinGen = gen
	req.Cmds = append(req.Cmds[:0], workload.ChurnGrant(1, 8, 8))
	if err := c.Do(&req, &resp); err != nil {
		t.Fatalf("wire authorize: %v", err)
	}
	if len(resp.Authz) != 1 || !resp.Authz[0].Allowed || resp.Generation < gen {
		t.Fatalf("wire authorize: %+v at generation %d, want allowed at >= %d", resp.Authz, resp.Generation, gen)
	}

	// A session created over the wire checks over the wire.
	req.Reset()
	req.Op = wire.OpSessionCreate
	req.Tenant = "acme"
	req.User = "u0"
	req.Roles = append(req.Roles[:0], "c0000")
	if err := c.Do(&req, &resp); err != nil {
		t.Fatalf("session create: %v", err)
	}
	sess := resp.Session
	req.Reset()
	req.Op = wire.OpCheck
	req.Tenant = "acme"
	req.Session = sess
	req.Checks = append(req.Checks[:0], wire.Check{Action: "read", Object: "obj"})
	if err := c.Do(&req, &resp); err != nil {
		t.Fatalf("session check: %v", err)
	}
	if len(resp.Allowed) != 1 || !resp.Allowed[0] {
		t.Fatalf("session check: %v, want [true]", resp.Allowed)
	}

	// SIGTERM drain: park a min-generation read on the wire, then terminate.
	// The drain must answer it (staleness after the 400ms wait) rather than
	// slam the connection — a transport error here means an in-flight
	// request was dropped on shutdown.
	parked := make(chan error, 1)
	go func() {
		var preq wire.Request
		var presp wire.Response
		preq.Op = wire.OpAuthorize
		preq.Tenant = "acme"
		preq.MinGen = 1 << 60
		preq.Cmds = append(preq.Cmds, workload.ChurnGrant(1, 8, 8))
		parked <- c.Do(&preq, &presp)
	}()
	time.Sleep(100 * time.Millisecond) // let the park reach the server
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-parked:
		wantCode(t, err, api.CodeStaleGeneration)
	case <-time.After(10 * time.Second):
		t.Fatal("parked wire request never answered during drain")
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown exited with: %v", err)
	}
}
