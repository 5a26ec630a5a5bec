package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"
)

// opTimeout bounds one request from send to last reply line. The
// slowest operation of any workload takes milliseconds; a request that
// takes this long is a hang, and the round fails.
const opTimeout = 15 * time.Second

// maxNotes caps the failure descriptions a client keeps for the report.
const maxNotes = 5

// client is one closed-loop connection: it sends a line and waits for
// the whole reply before sending the next. It counts every line sent and
// every way a reply can fail, so that the counts can be reconciled with
// the server's own. It is not serve.Client: that one allocates a string
// per reply line and reads single-line replies only, and this generator
// shares its two cores with the server it measures.
type client struct {
	conn net.Conn
	r    *bufio.Reader

	sent     int // lines sent, whatever came back
	busy     int // shed by the admission queue
	protoErr int // "error:" replies other than a blocked route
	mismatch int // reply differs from the reference transcript
	blocked  int // "no semilightpath exists": a correct answer, counted
	notes    []string
	err      error // transport error: the connection is unusable
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { _ = c.conn.Close() } // nothing is in flight; the error changes nothing

// failed is the number of requests on this connection that count
// against the run.
func (c *client) failed() int {
	n := c.busy + c.protoErr + c.mismatch
	if c.err != nil {
		n++
	}
	return n
}

func (c *client) note(format string, args ...any) {
	if len(c.notes) < maxNotes {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// outcome classifies one reply.
type outcome uint8

const (
	replyOK outcome = iota
	replyBlocked
	replyBusy
	replyProtoErr
	replyMismatch
	replyTransport
)

var (
	busyLine    = []byte("busy\n")
	errorPrefix = []byte("error:")
	blockedA    = []byte("no semilightpath exists")
	blockedB    = []byte("gave up after retries")
)

// do sends one operation and reads its whole reply, comparing it with
// the reference when the operation has one. The returned duration runs
// from just before the send to just after the last reply line.
func (c *client) do(o *op) (outcome, time.Duration) {
	if c.err != nil {
		return replyTransport, 0
	}
	start := time.Now()
	if err := c.conn.SetDeadline(start.Add(opTimeout)); err != nil {
		return c.transport(o, err), 0
	}
	c.sent++
	if _, err := c.conn.Write(o.send); err != nil {
		return c.transport(o, err), 0
	}
	first, err := c.r.ReadSlice('\n')
	if err != nil {
		return c.transport(o, err), 0
	}
	out := replyOK
	lines := o.lines
	switch {
	case bytes.Equal(first, busyLine):
		out, lines = replyBusy, 1
	case bytes.HasPrefix(first, errorPrefix):
		lines = 1
		if bytes.Contains(first, blockedA) || bytes.Contains(first, blockedB) {
			out = replyBlocked
		} else {
			out = replyProtoErr
		}
	}
	// Compare line by line against the reference without copying: the
	// reader's buffer is only valid until the next read.
	want, same := o.want, true
	line := first
	for i := 0; ; i++ {
		if len(want) >= len(line) && want[:len(line)] == string(line) {
			want = want[len(line):]
		} else {
			same = false
		}
		if i == lines-1 {
			break
		}
		if line, err = c.r.ReadSlice('\n'); err != nil {
			return c.transport(o, err), 0
		}
	}
	elapsed := time.Since(start)
	switch out {
	case replyBusy:
		c.busy++
		c.note("%s: shed with busy", o.line())
	case replyProtoErr:
		c.protoErr++
		c.note("%s: protocol error", o.line())
	default:
		if o.want != "" && (!same || want != "") {
			c.mismatch++
			c.note("%s: reply differs from the reference %q", o.line(), firstLine(o.want))
			return replyMismatch, elapsed
		}
		if out == replyBlocked {
			c.blocked++
		}
	}
	return out, elapsed
}

func (c *client) transport(o *op, err error) outcome {
	c.err = fmt.Errorf("%s: %w", o.line(), err)
	return replyTransport
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// ask sends a control verb (epoch, stats, metrics) and returns its
// reply lines: count lines, or up to the closing brace of the metrics
// verb's JSON document when count is 0.
func (c *client) ask(line string, count int) ([]string, error) {
	if c.err != nil {
		return nil, c.err
	}
	if err := c.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return nil, err
	}
	c.sent++
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		return nil, err
	}
	var out []string
	for count == 0 || len(out) < count {
		l, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		l = strings.TrimSuffix(l, "\n")
		out = append(out, l)
		if len(out) == 1 && (l == "busy" || strings.HasPrefix(l, "error:")) {
			return nil, fmt.Errorf("%s: %s", line, l)
		}
		if count == 0 && (l == "}" || l == "{}") {
			break
		}
	}
	return out, nil
}

// ping measures the round trip of the no-work epoch verb until the
// deadline and returns the round trips made and their total time.
func (c *client) ping(until time.Time) (int, time.Duration, error) {
	o := op{send: []byte("epoch\n"), lines: 1}
	var n int
	var total time.Duration
	for time.Now().Before(until) {
		out, d := c.do(&o)
		if out != replyOK {
			if c.err != nil {
				return n, total, c.err
			}
			return n, total, errors.New("epoch: unexpected reply")
		}
		n++
		total += d
	}
	return n, total, nil
}

// histogram is the part of an obs histogram snapshot the benchmark
// reads from the metrics verb.
type histogram struct {
	Count float64 `json:"count"`
	Sum   float64 `json:"sum"`
}

// serverMetrics is wdmserve's telemetry registry as the metrics verb
// prints it: plain numbers and histogram snapshots by name.
type serverMetrics map[string]json.RawMessage

func (c *client) metrics() (serverMetrics, error) {
	lines, err := c.ask("metrics", 0)
	if err != nil {
		return nil, err
	}
	var m serverMetrics
	if err := json.Unmarshal([]byte(strings.Join(lines, "\n")), &m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m, nil
}

func (m serverMetrics) number(name string) float64 {
	var v float64
	if json.Unmarshal(m[name], &v) != nil {
		return 0
	}
	return v
}

func (m serverMetrics) histogram(name string) histogram {
	var h histogram
	if json.Unmarshal(m[name], &h) != nil {
		return histogram{}
	}
	return h
}
