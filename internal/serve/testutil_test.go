package serve

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"lightpath/internal/cli"
	"lightpath/internal/engine"
	"lightpath/internal/wdm"
)

// buildNetErr resolves cli-style instance flags ("-topo", "nsfnet",
// ...) into a network, exactly the way the wdmserve binary does, so
// tests here and client-side oracles see the same deterministic
// instance. The error form exists for callers without a testing.TB
// (the fuzz worker's sync.Once).
func buildNetErr(args ...string) (*wdm.Network, error) {
	var nf cli.NetFlags
	fs := flag.NewFlagSet("serve-test", flag.ContinueOnError)
	nf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return nf.Build()
}

// buildNet is buildNetErr failing the test on error.
func buildNet(t testing.TB, args ...string) *wdm.Network {
	t.Helper()
	nw, err := buildNetErr(args...)
	if err != nil {
		t.Fatalf("build net: %v", err)
	}
	return nw
}

// newEngine builds an engine over the given instance flags.
func newEngine(t testing.TB, args ...string) *engine.Engine {
	t.Helper()
	eng, err := engine.New(buildNet(t, args...), nil)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return eng
}

// startServer runs a Server on a loopback listener and tears it down
// (with a generous drain budget) at test end. It returns the server and
// its dialable address.
func startServer(t testing.TB, eng *engine.Engine, cfg *ServerConfig) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return serveOn(t, ln, eng, cfg), ln.Addr().String()
}

// serveOn runs a Server on ln and drains it at test end. With a
// tracer configured, the drained server must have made no span
// lifecycle misuse, so every TCP test guards the served lifecycle.
func serveOn(t testing.TB, ln net.Listener, eng *engine.Engine, cfg *ServerConfig) *Server {
	t.Helper()
	srv := NewServer(eng, cfg)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
		if err := <-errCh; err != nil {
			t.Errorf("serve: %v", err)
		}
		if cfg != nil && cfg.Tracer != nil {
			if n := cfg.Tracer.Misuses(); n != 0 {
				t.Errorf("served traces made %d span lifecycle misuses, want 0", n)
			}
		}
	})
	return srv
}

// dialT dials the test server, failing the test on error.
func dialT(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	return c
}

// Client is a minimal line-protocol client used by the end-to-end
// tests. It deliberately understands only the reply framing, not the
// semantics: single-line verbs (route, alloc, release, fail, repair,
// epoch) answer with exactly one line — a result, an "error:" line, or
// a transport-level "busy" shed — and multi-line verbs are read with
// ReadLine by callers who know the shape (batch answers 1+N lines for N
// pairs, explain ends with its "  search:" line or, blocked, with its
// "error:" line).
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
// arm SetDeadline before each request.
func (c *Client) Send(line string) error {
	_, err := fmt.Fprintln(c.conn, line)
	return err
}

// ReadLine reads one reply line without its trailing newline. As with
// Send, the caller arms the deadline via SetDeadline.
func (c *Client) ReadLine() (string, error) {
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
