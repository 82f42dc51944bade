package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/service"
)

// Config wires a Server into a node: the request core owns the whole
// data-plane contract (see internal/service), so the HTTP facade's
// server.WireConfig hands over the same Core it serves from — two sockets,
// one node, one pipeline.
type Config struct {
	Core *service.Core
}

// Server serves the binary protocol on persistent, pipelined connections.
// Each connection gets one goroutine, one reusable read buffer, one pooled
// request slab and one write buffer: a drain of queued frames is decoded,
// handed to the core as one Do (which merges adjacent same-tenant
// authorize/submit runs into single engine passes), and answered with a
// single write.
type Server struct {
	core *service.Core

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a Server over cfg.
func NewServer(cfg Config) *Server {
	return &Server{core: cfg.Core, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close. It returns nil after a clean
// Close, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			// Responses are small frames on a pipelined connection; letting
			// Nagle hold one back for a delayed ACK turns a microsecond reply
			// into a 40ms stall.
			tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		c := newConnState(s, conn)
		go c.serve()
	}
}

// Close stops accepting, wakes every connection blocked in a read, lets
// in-flight requests finish and their responses flush, and waits for all
// connection goroutines to exit — the drain the SIGTERM path relies on.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		// Wake blocked reads; the handler sees the timeout, notices the
		// shutdown, finishes what it already read, flushes, and exits.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.wg.Done()
}

// connState is one connection's reusable machinery. Everything on it is
// owned by the connection goroutine; nothing is shared.
type connState struct {
	srv  *Server
	conn net.Conn

	in       []byte             // read buffer; complete frames are consumed from the front
	reqs     []Request          // decoded drain, slices reused across drains
	nreq     int                // live requests in reqs (len tracks pooled capacity)
	resps    []service.Response // the core's answers to reqs[:nreq]
	scratch  service.Scratch    // the result buffers those answers alias
	out      []byte             // response buffer, one conn.Write per drain
	interner *Interner
}

func newConnState(s *Server, conn net.Conn) *connState {
	return &connState{
		srv:      s,
		conn:     conn,
		in:       make([]byte, 0, 64<<10),
		out:      make([]byte, 0, 64<<10),
		interner: NewInterner(),
	}
}

func (c *connState) serve() {
	defer c.srv.dropConn(c.conn)
	for {
		if cap(c.in)-len(c.in) < 4<<10 {
			grown := make([]byte, len(c.in), cap(c.in)*2)
			copy(grown, c.in)
			c.in = grown
		}
		n, err := c.conn.Read(c.in[len(c.in):cap(c.in)])
		c.in = c.in[:len(c.in)+n]
		if cerr := c.consume(); cerr != nil {
			// Corrupt framing: the stream is unrecoverable; drop it.
			return
		}
		if len(c.out) > 0 {
			if _, werr := c.conn.Write(c.out); werr != nil {
				return
			}
			c.out = c.out[:0]
		}
		if err != nil {
			// EOF, peer reset, or the shutdown wake-up. Anything already
			// read was processed and flushed above, so a shutdown drain is
			// complete at this point.
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() && !c.srv.closing() {
				// A spurious deadline without shutdown: keep serving.
				c.conn.SetReadDeadline(time.Time{})
				continue
			}
			return
		}
	}
}

// consume decodes every complete frame in the read buffer into the request
// slab, hands the drain to the core, and appends all responses to the write
// buffer. It is the whole per-drain hot path minus the socket syscalls,
// which is what the allocation test measures.
func (c *connState) consume() error {
	off := 0
	for {
		payload, n, ok, err := NextFrame(c.in[off:])
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if c.nreq == len(c.reqs) {
			c.reqs = append(c.reqs, Request{})
		}
		req := &c.reqs[c.nreq]
		if perr := ParseRequest(payload, req, c.interner); perr != nil {
			// The frame was intact (CRC passed) but the body is nonsense —
			// the codec's own error, which the core never sees: answer what
			// was decoded before it, then this request (the ID echoes
			// whatever header prefix parsed), and keep the connection.
			c.flush()
			c.reply(req, &service.Response{
				Err:   &api.Error{Code: api.CodeBadRequest, Message: perr.Error()},
				Epoch: c.srv.core.Epoch().Current(),
			})
		} else {
			c.nreq++
		}
		off += n
	}
	if off > 0 {
		c.in = c.in[:copy(c.in, c.in[off:])]
	}
	c.flush()
	return nil
}

// flush runs the decoded drain through the core and encodes its answers.
func (c *connState) flush() {
	if c.nreq == 0 {
		return
	}
	if cap(c.resps) < c.nreq {
		c.resps = make([]service.Response, 2*c.nreq)
	}
	reqs, resps := c.reqs[:c.nreq], c.resps[:c.nreq]
	c.srv.core.Do(context.Background(), reqs, resps, &c.scratch)
	for i := range reqs {
		c.reply(&reqs[i], &resps[i])
	}
	c.nreq = 0
}

// reply appends one response frame to the write buffer straight from the
// core's answer — no intermediate struct, and no rendering of justifications
// the request did not ask for.
func (c *connState) reply(req *Request, r *service.Response) {
	status := StatusOK
	if r.Err != nil {
		status = StatusFromCode(r.Err.Code)
	}
	justify := req.Flags&FlagJustify != 0
	var err error
	c.out, err = command.AppendFrame(c.out, maxFramePayload, func(out []byte) ([]byte, error) {
		out = appendResponseHeader(out, status, req.ID, r.Generation, r.Epoch)
		switch {
		case r.Err != nil:
			// The frame has no placement-version field: a misroute's message
			// states it (see service.Core.Owner).
			out = appendErrorBody(out, r.Err.Message, uint32(r.Err.RetryAfter), r.Err.Node, r.Err.MinGeneration)
		case req.Op == OpAuthorize:
			out = binary.AppendUvarint(out, uint64(len(r.Authz)))
			for i := range r.Authz {
				out = appendJustification(appendBool(out, r.Authz[i].OK), justify, r.Authz[i].Justification)
			}
		case req.Op == OpSubmit:
			out = binary.AppendUvarint(out, uint64(len(r.Steps)))
			for i := range r.Steps {
				out = appendJustification(append(out, OutcomeByte(r.Steps[i].Outcome)), justify, r.Steps[i].Justification)
			}
		case req.Op == OpCheck:
			out = binary.AppendUvarint(out, uint64(len(r.Allowed)))
			for _, ok := range r.Allowed {
				out = appendBool(out, ok)
			}
		case req.Op == OpSessionCreate || req.Op == OpSessionUpdate:
			out = binary.LittleEndian.AppendUint64(out, r.Session)
			out = appendStrings(command.AppendString(out, r.User), r.Roles)
		}
		return out, nil
	})
	if err != nil {
		// A response overflowing the frame cap means a batch near the
		// request cap with huge justifications — unreachable with maxBatch ×
		// justification sizes, but defend anyway: answer a plain error
		// instead (a submit was already fully applied server-side).
		c.reply(req, &service.Response{
			Err:   &api.Error{Code: api.CodeInternal, Message: "response exceeded frame cap"},
			Epoch: r.Epoch,
		})
	}
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendJustification(dst []byte, justify bool, p model.Privilege) []byte {
	if justify && p != nil {
		return command.AppendString(dst, p.String())
	}
	return append(dst, 0)
}
