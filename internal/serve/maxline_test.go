package serve

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// lineOfBytes pads cmd with spaces (which the parser ignores) so that
// the line, its newline included, is exactly n bytes.
func lineOfBytes(cmd string, n int) string {
	return cmd + strings.Repeat(" ", n-len(cmd)-1) + "\n"
}

var tooLongReply = fmt.Sprintf("error: line exceeds %d bytes", MaxLineBytes)

// TestMaxLineBytesScript: RunScript accepts a line of exactly
// MaxLineBytes, answers one byte more with the protocol's error line,
// and ends there — the commands after it never run.
func TestMaxLineBytesScript(t *testing.T) {
	eng := newEngine(t, "-topo", "paper")
	var out strings.Builder
	sess := NewSession(eng, &out, nil)
	script := lineOfBytes("batch 0 6 3 5", MaxLineBytes) + "epoch\n"
	if err := RunScript(sess, strings.NewReader(script)); err != nil {
		t.Fatalf("a line of exactly MaxLineBytes must run: %v", err)
	}
	if got := out.String(); !strings.HasPrefix(got, "batch of 2 at epoch 0:\n") || !strings.HasSuffix(got, "epoch 0\n") {
		t.Fatalf("limit-sized batch line not answered:\n%s", got)
	}

	out.Reset()
	script = "epoch\n" + lineOfBytes("batch 0 6 3 5", MaxLineBytes+1) + "alloc 0 6\n"
	if err := RunScript(sess, strings.NewReader(script)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("over-long line: RunScript returned %v, want bufio.ErrTooLong", err)
	}
	if got, want := out.String(), "epoch 0\n"+tooLongReply+"\n"; got != want {
		t.Fatalf("over-long line reply = %q, want %q", got, want)
	}
	if eng.Epoch() != 0 {
		t.Fatal("a command after the over-long line still ran")
	}
}

// TestMaxLineBytesTCP is the same contract over the wire: the limit is
// the same constant, the over-long line gets its reply before the server
// hangs up, and other connections are unaffected.
func TestMaxLineBytesTCP(t *testing.T) {
	eng := newEngine(t, "-topo", "paper")
	_, addr := startServer(t, eng, &ServerConfig{QueueDepth: 4})

	c := dialT(t, addr)
	if err := c.Send(strings.TrimSuffix(lineOfBytes("batch 0 6 3 5", MaxLineBytes), "\n")); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"batch of 2 at epoch 0:", "  0 -> 6: cost 20", "  3 -> 5: "} {
		if line, err := c.ReadLine(); err != nil || !strings.HasPrefix(line, want) {
			t.Fatalf("limit-sized batch reply line %d = %q, %v; want prefix %q", i, line, err, want)
		}
	}

	if err := c.Send(strings.TrimSuffix(lineOfBytes("batch 0 6 3 5", MaxLineBytes+1), "\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := c.ReadLine(); err != nil || line != tooLongReply {
		t.Fatalf("over-long line reply = %q, %v; want %q", line, err, tooLongReply)
	}
	if line, err := c.ReadLine(); err == nil {
		t.Fatalf("connection survived an over-long line, read %q", line)
	}

	other := dialT(t, addr)
	if line, err := other.Do("epoch"); err != nil || line != "epoch 0" {
		t.Fatalf("a fresh connection after the hang-up: %q, %v", line, err)
	}
}
