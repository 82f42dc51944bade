// Package harness runs one workload of the reference benchmark against real
// rbacd child processes: it starts and stops daemons, provisions tenants
// over the v1 HTTP API, drives the load phases through the binary wire
// client or HTTP, reads the daemons' cost from /proc, and audits every
// acknowledged write afterwards.
package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Daemon is one running rbacd child process.
type Daemon struct {
	// HTTP is the base URL of the v1 API, Wire the binary plane's address
	// (empty when not enabled).
	HTTP string
	Wire string
	Args []string

	cmd    *exec.Cmd
	exited chan struct{}
	// waitErr is set before exited closes.
	waitErr error

	mu     sync.Mutex
	stderr bytes.Buffer
}

// live tracks every running daemon and every data directory in use, so an
// interrupt can stop the former and remove the latter (see Abort).
var live struct {
	sync.Mutex
	daemons map[*Daemon]bool
	dirs    map[string]bool
}

func track(d *Daemon, dir string, on bool) {
	live.Lock()
	defer live.Unlock()
	if live.daemons == nil {
		live.daemons, live.dirs = map[*Daemon]bool{}, map[string]bool{}
	}
	if d != nil {
		if on {
			live.daemons[d] = true
		} else {
			delete(live.daemons, d)
		}
	}
	if dir != "" {
		if on {
			live.dirs[dir] = true
		} else {
			delete(live.dirs, dir)
		}
	}
}

// Abort kills every daemon still running and removes every data directory
// still in use: the interrupt path, when no deferred clean-up will run.
func Abort() {
	live.Lock()
	defer live.Unlock()
	for d := range live.daemons {
		d.cmd.Process.Kill()
		<-d.exited
	}
	for dir := range live.dirs {
		os.RemoveAll(dir)
	}
}

type lockedWriter struct{ d *Daemon }

func (w lockedWriter) Write(p []byte) (int, error) {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	return w.d.stderr.Write(p)
}

// StartDaemon execs the rbacd binary with args plus loopback listeners on
// free ports and returns once it has announced them.
func StartDaemon(bin string, wire bool, args ...string) (*Daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	if wire {
		args = append(args, "-wire-addr", "127.0.0.1:0")
	}
	d := &Daemon{Args: args, cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.Stderr = lockedWriter{d}
	// Its own process group, so a terminal's Ctrl-C reaches the benchmark
	// alone and the benchmark stops its daemons in order; and the kernel
	// kills the daemon if the benchmark dies without stopping it (a panic, a
	// SIGKILL on a timeout), so no run can be served by a stale daemon.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	track(d, "", true)
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // nobody is listening any more; keep draining the pipe
			}
		}
		close(lines)
		d.waitErr = d.cmd.Wait()
		close(d.exited)
		track(d, "", false)
	}()

	timeout := time.After(20 * time.Second)
	for d.HTTP == "" || (wire && d.Wire == "") {
		select {
		case line, ok := <-lines:
			if !ok {
				<-d.exited
				return nil, fmt.Errorf("rbacd exited during start-up: %v: %s", d.waitErr, d.Stderr())
			}
			if addr, ok := strings.CutPrefix(line, "rbacd: wire listening on "); ok {
				d.Wire = addr
			} else if rest, ok := strings.CutPrefix(line, "rbacd: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				d.HTTP = "http://" + addr
			}
		case <-timeout:
			d.Kill()
			return nil, fmt.Errorf("rbacd did not announce its listeners within 20s")
		}
	}
	return d, nil
}

// Pid is the daemon's process id.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// Stderr returns what the daemon has written to standard error.
func (d *Daemon) Stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// Exited reports whether the process has ended.
func (d *Daemon) Exited() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

// Stop asks the daemon to drain (SIGTERM), waits for it, and kills it if it
// does not exit in time. It returns the daemon's exit error, if any.
func (d *Daemon) Stop() error {
	if d.Exited() {
		return d.waitErr
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(20 * time.Second):
		d.Kill()
		return fmt.Errorf("rbacd pid %d ignored SIGTERM for 20s; killed", d.Pid())
	}
}

// Kill ends the daemon at once and waits until it is gone.
func (d *Daemon) Kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// CPU returns the CPU time the process has consumed so far: the sum over
// its threads of the scheduler's on-CPU time (/proc/<pid>/task/<tid>/schedstat,
// nanoseconds), which resolves a one-second window of a lightly loaded daemon
// where the 10 ms ticks of /proc/<pid>/stat's utime+stime do not. A Go
// process does not end the threads it starts, so none drops out of the sum.
func (d *Daemon) CPU() (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", d.Pid()))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", d.Pid(), t.Name()))
		if err != nil {
			return 0, err
		}
		field, _, _ := strings.Cut(string(data), " ")
		ns, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/task/%s/schedstat: unexpected format %q", d.Pid(), t.Name(), data)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// PeakRSSMB returns the process's resident-set high-water mark (VmHWM).
func (d *Daemon) PeakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.Pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: bad VmHWM %q", d.Pid(), rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", d.Pid())
}
