package serve

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal line-protocol client used by the wdmload load
// generator and the end-to-end tests. It deliberately understands only
// the reply framing, not the semantics: single-line verbs (route,
// alloc, release, fail, repair, epoch) answer with exactly one line —
// a result, an "error:" line, or a transport-level "busy" shed — and
// multi-line verbs are read with ReadLine by callers who know the
// shape (batch answers 1+N lines for N pairs, explain ends with its
// "  search:" line or, blocked, with its "error:" line).
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a wdmserve -listen address.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// SetDeadline bounds every subsequent read and write on the
// connection.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Send writes one command line. The caller owns the deadline policy:
// arm SetDeadline before each request (wdmload does exactly this).
func (c *Client) Send(line string) error {
	//lint:ignore deadlinecheck deadline policy is the caller's via Client.SetDeadline; Send is documented as deadline-agnostic
	_, err := fmt.Fprintln(c.conn, line)
	return err
}

// ReadLine reads one reply line without its trailing newline. As with
// Send, the caller arms the deadline via SetDeadline.
func (c *Client) ReadLine() (string, error) {
	//lint:ignore deadlinecheck deadline policy is the caller's via Client.SetDeadline; ReadLine is documented as deadline-agnostic
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSuffix(line, "\n"), nil
}

// Do sends one single-line verb and returns its one reply line.
func (c *Client) Do(line string) (string, error) {
	if err := c.Send(line); err != nil {
		return "", err
	}
	return c.ReadLine()
}

// ReplyKind classifies one reply line from the client's perspective.
type ReplyKind int

const (
	// ReplyOK is a successful answer (cost line, lease grant, released/
	// failed/repaired/epoch confirmation, ...).
	ReplyOK ReplyKind = iota
	// ReplyBusy is the admission queue shedding the request.
	ReplyBusy
	// ReplyBlocked is a routing answer: no semilightpath exists in the
	// residual network (or allocation retries were exhausted under
	// write contention) — the WDM-level blocking event the blocking-
	// probability experiments count.
	ReplyBlocked
	// ReplyProtocolError is every other "error:" line — malformed
	// input, unknown lease, out-of-range node. A correct closed-loop
	// client should never provoke one.
	ReplyProtocolError
)

// Classify buckets one reply line.
func Classify(line string) ReplyKind {
	switch {
	case line == "busy":
		return ReplyBusy
	case !strings.HasPrefix(line, "error:"):
		return ReplyOK
	case strings.Contains(line, "no semilightpath exists"),
		strings.Contains(line, "gave up after retries"):
		return ReplyBlocked
	default:
		return ReplyProtocolError
	}
}

// ParseLease extracts the lease ID from an alloc grant line
// ("lease 7 (epoch 42): cost ...").
func ParseLease(line string) (int64, bool) {
	if !strings.HasPrefix(line, "lease ") {
		return 0, false
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, false
	}
	id, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// ParseCost extracts the route cost from a "cost %g  ..." answer line
// (also accepting the indented batch / kshortest forms).
func ParseCost(line string) (float64, bool) {
	s := strings.TrimSpace(line)
	if i := strings.Index(s, "cost "); i >= 0 {
		s = s[i+len("cost "):]
	} else {
		return 0, false
	}
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
