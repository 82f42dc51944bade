package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ClientOptions tunes a Client.
type ClientOptions struct {
	// Conns is the connection pool size (default 4). Calls are spread
	// round-robin; calls sharing a connection pipeline, which is what lets
	// the server batch them into single engine passes.
	Conns int
	// CallTimeout bounds one call end-to-end (0 = none). A timed-out call
	// kills its connection — the pipeline behind it is dead anyway, and the
	// pool redials on next use.
	CallTimeout time.Duration
}

// Client is a pooled, pipelined binary-protocol client. Safe for concurrent
// use; each call is one request frame and one response frame, correlated in
// FIFO order per connection. Errors surface as *api.Error carrying the same
// codes the HTTP client decodes, so callers dispatch identically.
type Client struct {
	addr string
	opts ClientOptions

	mu     sync.Mutex
	conns  []*clientConn
	next   int
	closed bool
}

// Dial connects a pool to a wire listener address. The first connection is
// established eagerly so an unreachable address fails here, not on first use.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = 4
	}
	c := &Client{addr: addr, opts: opts, conns: make([]*clientConn, opts.Conns)}
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conns[0] = cc
	return c, nil
}

// dialTimeout bounds each dial.
const dialTimeout = 5 * time.Second

func (c *Client) dial() (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cc := &clientConn{conn: conn, wbuf: make([]byte, 0, 16<<10)}
	go cc.readLoop()
	return cc, nil
}

// Close tears the pool down; in-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := make([]*clientConn, len(c.conns))
	copy(conns, c.conns)
	c.mu.Unlock()
	for _, cc := range conns {
		if cc != nil {
			cc.kill(errors.New("wire: client closed"))
		}
	}
	return nil
}

// conn picks the next pool slot round-robin, redialing dead entries.
func (c *Client) conn() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("wire: client closed")
	}
	i := c.next
	c.next = (c.next + 1) % len(c.conns)
	cc := c.conns[i]
	c.mu.Unlock()
	if cc != nil && !cc.dead() {
		return cc, nil
	}
	fresh, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		fresh.kill(errors.New("wire: client closed"))
		return nil, errors.New("wire: client closed")
	}
	if old := c.conns[i]; old != nil && !old.dead() {
		// Another caller already replaced it; use theirs and discard ours.
		c.mu.Unlock()
		fresh.kill(errors.New("wire: redundant dial"))
		return old, nil
	}
	c.conns[i] = fresh
	c.mu.Unlock()
	return fresh, nil
}

// Do sends req on one pooled connection and fills resp with the answer.
// The client assigns req.ID. The returned error is a transport fault, or
// the response's *api.Error for a non-OK status (resp still filled).
func (c *Client) Do(req *Request, resp *Response) error {
	cc, err := c.conn()
	if err != nil {
		return err
	}
	return cc.do(req, resp, c.opts.CallTimeout)
}

// pendingCall is one in-flight request awaiting its FIFO response.
type pendingCall struct {
	op   Opcode
	id   uint64
	resp *Response
	err  error
	done chan struct{}
}

var callPool = sync.Pool{New: func() any { return &pendingCall{done: make(chan struct{}, 1)} }}

// clientConn is one pooled connection: writers serialize on mu (write order
// defines response order), a single reader goroutine correlates responses.
type clientConn struct {
	mu      sync.Mutex
	conn    net.Conn
	wbuf    []byte
	nextID  uint64
	pending []*pendingCall
	head    int
	err     error
}

func (cc *clientConn) dead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// kill marks the connection dead and fails every pending call.
func (cc *clientConn) kill(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	calls := cc.pending[cc.head:]
	cc.pending = nil
	cc.head = 0
	conn := cc.conn
	cc.mu.Unlock()
	conn.Close()
	for _, call := range calls {
		call.err = err
		call.done <- struct{}{}
	}
}

func (cc *clientConn) do(req *Request, resp *Response, timeout time.Duration) error {
	call := callPool.Get().(*pendingCall)
	call.op = req.Op
	call.resp = resp
	call.err = nil

	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		callPool.Put(call)
		return err
	}
	cc.nextID++
	req.ID = cc.nextID
	call.id = req.ID
	buf, err := AppendRequest(cc.wbuf[:0], req)
	if err != nil {
		cc.mu.Unlock()
		callPool.Put(call)
		return err
	}
	cc.wbuf = buf[:0]
	cc.pending = append(cc.pending, call)
	_, werr := cc.conn.Write(buf)
	cc.mu.Unlock()
	if werr != nil {
		cc.kill(fmt.Errorf("wire: write: %w", werr))
		// kill completed this call (it was pending); drain its signal.
		<-call.done
		err := call.err
		callPool.Put(call)
		return err
	}

	if timeout > 0 {
		t := time.NewTimer(timeout)
		select {
		case <-call.done:
			t.Stop()
		case <-t.C:
			// The pipeline is stuck; the connection (and every call behind
			// this one) is unrecoverable. kill always completes the call,
			// so the wait below is bounded.
			cc.kill(fmt.Errorf("wire: call timed out after %v", timeout))
			<-call.done
		}
	} else {
		<-call.done
	}
	err = call.err
	callPool.Put(call)
	if err != nil {
		return err
	}
	return resp.Err()
}

// readLoop is the connection's single reader: frames arrive in the order
// requests were written, each completing the oldest pending call.
func (cc *clientConn) readLoop() {
	buf := make([]byte, 0, 64<<10)
	for {
		if cap(buf)-len(buf) < 4<<10 {
			grown := make([]byte, len(buf), cap(buf)*2)
			copy(grown, buf)
			buf = grown
		}
		cc.mu.Lock()
		conn := cc.conn
		cc.mu.Unlock()
		n, err := conn.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		for {
			payload, n, ok, ferr := NextFrame(buf)
			if ferr != nil {
				cc.kill(ferr)
				return
			}
			if !ok {
				break
			}
			call := cc.pop()
			if call == nil {
				cc.kill(errors.New("wire: response with no pending call"))
				return
			}
			if perr := ParseResponse(payload, call.op, call.resp); perr != nil {
				call.err = perr
				call.done <- struct{}{}
				cc.kill(perr)
				return
			}
			if call.resp.ID != call.id {
				call.err = fmt.Errorf("wire: response id %d for call %d", call.resp.ID, call.id)
				call.done <- struct{}{}
				cc.kill(call.err)
				return
			}
			call.done <- struct{}{}
			buf = buf[:copy(buf, buf[n:])]
		}
		if err != nil {
			cc.kill(fmt.Errorf("wire: read: %w", err))
			return
		}
	}
}

// pop removes the oldest pending call.
func (cc *clientConn) pop() *pendingCall {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.head >= len(cc.pending) {
		return nil
	}
	call := cc.pending[cc.head]
	cc.pending[cc.head] = nil
	cc.head++
	if cc.head == len(cc.pending) {
		cc.pending = cc.pending[:0]
		cc.head = 0
	}
	return call
}
