package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the conn type's deadline policy: one read deadline per
// request line, one write deadline per reply from its first wire write.

// readLines reads n reply lines and returns their total size on the
// wire, newlines included.
func readLines(t *testing.T, c *Client, what string, n int) int {
	t.Helper()
	bytes := 0
	for i := 0; i < n; i++ {
		line, err := c.ReadLine()
		if err != nil {
			t.Fatalf("%s: line %d of %d: %v", what, i, n, err)
		}
		bytes += len(line) + 1
	}
	return bytes
}

// largeBatch is a batch of pairs whose reply is well over bufio's 4 KB
// buffer on a 300-node instance.
func largeBatch(pairs int) string {
	var sb strings.Builder
	sb.WriteString("batch")
	for i := 1; i <= pairs; i++ {
		fmt.Fprintf(&sb, " 0 %d", i)
	}
	return sb.String()
}

// TestTCPLargeReplyAfterIdleGap is the regression test for a reply that
// outgrows the write buffer after the client paused longer than
// WriteTimeout: the overflow chunk reaches the wire during execution,
// before the final flush, and must run under this reply's deadline, not
// the previous reply's long-expired one.
func TestTCPLargeReplyAfterIdleGap(t *testing.T) {
	eng := newEngine(t, "-topo", "sparse", "-n", "300")
	const wt = 100 * time.Millisecond
	_, addr := startServer(t, eng, &ServerConfig{QueueDepth: 4, WriteTimeout: wt})
	c := dialT(t, addr)
	if reply, err := c.Do("epoch"); err != nil || !strings.HasPrefix(reply, "epoch ") {
		t.Fatalf("epoch: %q, %v", reply, err)
	}

	time.Sleep(3 * wt)
	if err := c.Send("routefrom 0"); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, c, "routefrom 0", 300); got <= 4096 {
		t.Fatalf("routefrom reply is %d B; the test needs one over the 4 KB write buffer", got)
	}

	time.Sleep(3 * wt)
	const pairs = 200
	header, err := c.Do(largeBatch(pairs))
	if err != nil || !strings.HasPrefix(header, fmt.Sprintf("batch of %d ", pairs)) {
		t.Fatalf("batch header: %q, %v", header, err)
	}
	if got := readLines(t, c, "batch", pairs); got <= 4096 {
		t.Fatalf("batch reply is %d B; the test needs one over the 4 KB write buffer", got)
	}
}

// TestTCPIdleTimeoutServerCloses pins who ends an idle connection:
// the server, by closing it (the client reads EOF) within IdleTimeout
// plus a second — not the client's own read deadline expiring.
func TestTCPIdleTimeoutServerCloses(t *testing.T) {
	eng := newEngine(t, "-topo", "paper")
	const idle = 150 * time.Millisecond
	_, addr := startServer(t, eng, &ServerConfig{QueueDepth: 4, IdleTimeout: idle})
	c := dialT(t, addr)
	start := time.Now()
	if err := c.SetDeadline(start.Add(idle + time.Second)); err != nil {
		t.Fatal(err)
	}
	line, err := c.ReadLine()
	if !errors.Is(err, io.EOF) {
		t.Fatalf("idle client after %s (IdleTimeout %s): read %q, %v; want EOF from the server's close",
			time.Since(start), idle, line, err)
	}
}

// pipeListener hands the server one end of a net.Pipe per dial. A pipe
// has no buffer, so a write blocks until the peer reads: a client that
// stops reading stalls the server's next write at once.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial connects a client to the server behind l.
func (l *pipeListener) dial(t *testing.T) *Client {
	t.Helper()
	cli, srv := net.Pipe()
	select {
	case l.conns <- srv:
	case <-time.After(5 * time.Second):
		t.Fatal("pipe listener: no Accept")
	}
	t.Cleanup(func() { cli.Close() })
	c := &Client{conn: cli, r: bufio.NewReader(cli)}
	if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTCPWriteTimeoutDropsStalledReader shows WriteTimeout firing: a
// client pipelines large-reply requests and never reads, so the
// server's first write of the first reply blocks. The server must drop
// that connection within WriteTimeout + 1 s, and serve a second
// connection meanwhile and after.
func TestTCPWriteTimeoutDropsStalledReader(t *testing.T) {
	eng := newEngine(t, "-topo", "sparse", "-n", "300")
	const wt = 200 * time.Millisecond
	ln := newPipeListener()
	serveOn(t, ln, eng, &ServerConfig{QueueDepth: 4, WriteTimeout: wt})

	stalled := ln.dial(t)
	start := time.Now()
	if err := stalled.Send("routefrom 0\nroutefrom 1\nroutefrom 2"); err != nil {
		t.Fatal(err)
	}

	other := ln.dial(t)
	if err := other.Send("routefrom 0"); err != nil {
		t.Fatal(err)
	}
	readLines(t, other, "second connection's routefrom 0", 300)

	// The stalled server end reads nothing more: this write completes
	// only when the server closes the connection, as io.ErrClosedPipe.
	if err := stalled.SetDeadline(start.Add(wt + time.Second)); err != nil {
		t.Fatal(err)
	}
	err := stalled.Send("epoch")
	took := time.Since(start)
	if !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("stalled reader still connected after %s (WriteTimeout %s): write returned %v", took, wt, err)
	}
	if took < wt {
		t.Fatalf("stalled reader dropped after %s, before WriteTimeout %s", took, wt)
	}

	if reply, err := other.Do("epoch"); err != nil || !strings.HasPrefix(reply, "epoch ") {
		t.Fatalf("second connection after the drop: %q, %v", reply, err)
	}
}

// countingListener hands out conns that count deadline arms.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countingConn{Conn: nc, closed: make(chan struct{})}
	l.accepted <- c
	return c, nil
}

type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
	closed        chan struct{}
	once          sync.Once
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.reads.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c *countingConn) SetWriteDeadline(t time.Time) error {
	c.writes.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

func (c *countingConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestDeadlineArmsPerRequest pins the hot-path cost of the deadline
// policy in counts: N requests, one with a reply over the 4 KB write
// buffer, arm exactly N+1 read deadlines (the last for the read that
// meets EOF) and N write deadlines.
func TestDeadlineArmsPerRequest(t *testing.T) {
	eng := newEngine(t, "-topo", "sparse", "-n", "300")
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: tcp, accepted: make(chan *countingConn, 1)}
	serveOn(t, ln, eng, &ServerConfig{QueueDepth: 4, IdleTimeout: 10 * time.Second, WriteTimeout: 10 * time.Second})
	c := dialT(t, tcp.Addr().String())

	requests := []struct {
		line  string
		lines int
	}{
		{"epoch", 1},
		{"route 0 9", 1},
		{"routefrom 0", 300},
		{"batch 0 1 2 3", 3},
		{"warp", 1},
		{"epoch", 1},
	}
	wire := 0
	for _, r := range requests {
		if err := c.Send(r.line); err != nil {
			t.Fatal(err)
		}
		wire = max(wire, readLines(t, c, r.line, r.lines))
	}
	if wire <= 4096 {
		t.Fatalf("largest reply is %d B; the test needs one over the 4 KB write buffer", wire)
	}
	c.Close()

	sc := <-ln.accepted
	select {
	case <-sc.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not close the connection after the client's EOF")
	}
	n := int64(len(requests))
	if got := sc.reads.Load(); got != n+1 {
		t.Errorf("read deadlines armed = %d for %d requests, want %d", got, n, n+1)
	}
	if got := sc.writes.Load(); got != n {
		t.Errorf("write deadlines armed = %d for %d requests, want %d", got, n, n)
	}
}
