package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"lightpath/internal/engine"
	"lightpath/internal/obs"
)

// DefaultQueueDepth is the admission-queue capacity when
// ServerConfig.QueueDepth is zero.
const DefaultQueueDepth = 64

// ServerConfig tunes the TCP front-end's overload and timeout policy.
type ServerConfig struct {
	// QueueDepth bounds how many requests may be admitted (executing or
	// waiting for an execution slot) at once, across all connections.
	// When the queue is full, further requests are shed with a "busy"
	// reply instead of queueing unboundedly. Zero means
	// DefaultQueueDepth.
	QueueDepth int
	// RequestTimeout bounds how long a request may wait for an
	// admission slot before it is shed; execution itself (microseconds
	// against a compiled snapshot) is not interruptible. <= 0 sheds
	// immediately whenever the queue is full.
	RequestTimeout time.Duration
	// IdleTimeout bounds the wait for each request line: the read
	// deadline is re-armed before every line, so a client silent for
	// longer is disconnected. 0 means no limit.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one reply, from its first byte on the
	// wire to its last: every chunk of the reply, including one that
	// overflows the write buffer mid-request, shares one deadline. A
	// client that stops reading is disconnected. 0 means no limit.
	WriteTimeout time.Duration
	// Workers sets each session's batch worker pool (0 = GOMAXPROCS).
	Workers int
	// Telemetry receives connection/shed/latency instruments; nil
	// disables serve-layer metrics.
	Telemetry *Telemetry
	// Tracer, when non-nil, records every request as a span tree in the
	// flight recorder: the trace starts before admission so queue wait is
	// measured, the root carries the client's remote address, and shed
	// requests are retained with outcome=shed. Nil disables recording at
	// zero cost.
	Tracer *obs.Tracer
	// Monitor backs the history/health verbs on every connection's
	// session; nil leaves those verbs unconfigured.
	Monitor *obs.Monitor

	// testExecDelay artificially lengthens request execution while the
	// admission slot is held — package tests use it to make shedding and
	// drain timing deterministic. Unexported: only in-package tests can
	// set it.
	testExecDelay time.Duration
}

// Server accepts TCP clients speaking the wdmserve line protocol, one
// Session per connection, all sharing one engine. Replies are exactly
// what the stdin REPL prints, plus one transport-level reply the REPL
// never needs: a lone "busy" line when the admission queue sheds the
// request.
//
// The zero value is not usable; build with NewServer, run with Serve,
// stop with Shutdown (graceful drain).
type Server struct {
	eng     *engine.Engine
	cfg     ServerConfig
	slots   chan struct{}
	drainCh chan struct{}

	mu    sync.Mutex
	ln    net.Listener
	conns map[*conn]struct{}
	wg    sync.WaitGroup
}

// NewServer builds a TCP front-end over eng.
func NewServer(eng *engine.Engine, cfg *ServerConfig) *Server {
	s := &Server{eng: eng, drainCh: make(chan struct{}), conns: make(map[*conn]struct{})}
	if cfg != nil {
		s.cfg = *cfg
	}
	if s.cfg.QueueDepth <= 0 {
		s.cfg.QueueDepth = DefaultQueueDepth
	}
	s.slots = make(chan struct{}, s.cfg.QueueDepth)
	return s
}

// Serve accepts connections on ln until Shutdown (or a listener error)
// and blocks for the lifetime of the accept loop. Connection handlers
// run in their own goroutines and may outlive Serve; Shutdown waits for
// them.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining() {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		s.mu.Lock()
		if s.draining() {
			// Raced with Shutdown: the listener was closed after this
			// accept succeeded. Refuse the connection.
			s.mu.Unlock()
			nc.Close()
			continue
		}
		conn := s.wrap(nc)
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Shutdown drains the server: it stops accepting, lets every
// in-flight request finish and its reply flush, then closes the
// connections. Requests already queued but not yet admitted are shed.
// If ctx expires first, remaining connections are force-closed and a
// non-nil error reports how many. Nothing is released implicitly:
// leases held by clients survive the drain (teardown policy belongs to
// the operator, exactly as with the REPL).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	select {
	case <-s.drainCh:
	default:
		close(s.drainCh)
	}
	if s.ln != nil {
		s.ln.Close()
	}
	// Unblock reads waiting for the next request: a connection parked
	// in Read has nothing in flight, so its handler can exit now. A
	// handler mid-request finishes and flushes first (it only returns
	// to Read after replying).
	for conn := range s.conns {
		conn.wake()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		forced := len(s.conns)
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("serve: drain deadline exceeded, force-closed %d connections", forced)
	}
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Draining reports whether Shutdown has begun — the signal /readyz
// inverts: a draining server still finishes in-flight requests but
// must stop receiving new traffic from load balancers. Nil-safe (a nil
// server is trivially not draining).
func (s *Server) Draining() bool {
	if s == nil {
		return false
	}
	return s.draining()
}

// handle drives one connection: read a line, admit it through the
// bounded queue (or shed with "busy"), execute it on the connection's
// session, flush the reply.
func (s *Server) handle(conn *conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		if s.cfg.Telemetry != nil {
			s.cfg.Telemetry.ConnClosed()
		}
	}()
	if s.cfg.Telemetry != nil {
		s.cfg.Telemetry.ConnOpened()
	}
	// The remote address is rendered once, by the first recorded request.
	var remote string

	out := bufio.NewWriter(conn)
	sess := NewSession(s.eng, out, &SessionOptions{
		Workers:   s.cfg.Workers,
		Telemetry: s.cfg.Telemetry,
		Tracer:    s.cfg.Tracer,
		Monitor:   s.cfg.Monitor,
	})
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	for {
		if !conn.next(scanner) {
			// Draining, EOF, idle timeout, a drain-induced deadline — or
			// a line over MaxLineBytes, which gets its reply first.
			if replyTooLong(out, scanner) {
				_ = out.Flush() // the connection ends either way
			}
			return
		}
		line := CleanLine(scanner.Text())
		if line == "" {
			continue
		}
		if s.draining() {
			return // request arrived after drain began: refuse it
		}
		// Start the request trace before admission so the queue wait —
		// the dominant latency term under overload — is inside it.
		req := s.cfg.Tracer.Start(spanRequest)
		if req != nil {
			if remote == "" {
				remote = conn.remoteAddr()
			}
			req.Root().SetStr(attrRemote, remote)
		}
		qsp := req.Root().StartChild(spanQueueWait)
		admitted := s.admit()
		qsp.End()
		if !admitted {
			req.Root().SetStr(attrOutcome, outcomeShed)
			s.cfg.Tracer.Finish(req)
			if s.cfg.Telemetry != nil {
				s.cfg.Telemetry.Shed()
			}
			fmt.Fprintln(out, "busy")
			if out.Flush() != nil {
				return
			}
			continue
		}
		if s.cfg.testExecDelay > 0 {
			time.Sleep(s.cfg.testExecDelay)
		}
		quit, err := sess.ExecReq(line, req)
		<-s.slots
		s.cfg.Tracer.Finish(req)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
		if out.Flush() != nil {
			return
		}
		if quit || s.draining() {
			return
		}
	}
}

// admit claims an admission slot, waiting at most RequestTimeout (not
// at all when the timeout is zero, and never past the start of a
// drain). A false result means the request must be shed.
func (s *Server) admit() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	if s.cfg.RequestTimeout <= 0 {
		return false
	}
	t := time.NewTimer(s.cfg.RequestTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-s.drainCh:
		return false
	}
}

// conn is the server's only handle on an accepted connection: the
// raw net.Conn is a private field, and every read and write on it goes
// through a method that arms its deadline first. Zero time.Time means
// no limit, so the untimed configuration arms too.
//
// Reads take one deadline per request line (next). Writes take one
// deadline per reply, armed at the reply's first wire write and covering
// every later chunk — the one bufio flushes mid-request when a reply
// outgrows its buffer as well as the final flush. next starts a new
// reply, so each request arms exactly one read and one write deadline.
type conn struct {
	nc         net.Conn
	s          *Server
	writeArmed bool // the current reply's write deadline is set
}

// wrap takes ownership of an accepted connection.
func (s *Server) wrap(nc net.Conn) *conn { return &conn{nc: nc, s: s} }

// next reads one request line into sc under a fresh idle deadline and
// starts a new reply. It reports false once Shutdown has begun, at EOF,
// and on a read error (sc.Err tells a line over MaxLineBytes apart).
//
// Shutdown closes drainCh before stamping its wake deadline under s.mu,
// so if the idle deadline armed here overwrites a drain stamp, the
// draining check after it is already true and next returns before
// parking in Scan.
func (c *conn) next(sc *bufio.Scanner) bool {
	idle := time.Time{}
	if c.s.cfg.IdleTimeout > 0 {
		idle = time.Now().Add(c.s.cfg.IdleTimeout)
	}
	_ = c.nc.SetReadDeadline(idle)
	c.writeArmed = false
	if c.s.draining() {
		return false
	}
	return sc.Scan()
}

// Read serves the scanner inside next, under the deadline next armed.
func (c *conn) Read(p []byte) (int, error) { return c.nc.Read(p) }

// Write sends part of the current reply, arming WriteTimeout at the
// reply's first wire write.
func (c *conn) Write(p []byte) (int, error) {
	if !c.writeArmed {
		wd := time.Time{}
		if c.s.cfg.WriteTimeout > 0 {
			wd = time.Now().Add(c.s.cfg.WriteTimeout)
		}
		_ = c.nc.SetWriteDeadline(wd)
		c.writeArmed = true
	}
	return c.nc.Write(p)
}

// wake makes a read parked in next return now: Shutdown's nudge to an
// idle connection. Safe to call from any goroutine.
func (c *conn) wake() { _ = c.nc.SetReadDeadline(time.Now()) }

// remoteAddr renders the peer's address for trace attributes.
func (c *conn) remoteAddr() string { return c.nc.RemoteAddr().String() }

// Close closes the underlying connection; safe from any goroutine.
func (c *conn) Close() error { return c.nc.Close() }
