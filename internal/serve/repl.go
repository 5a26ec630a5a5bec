package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// MaxLineBytes bounds one request line, terminator included, on every
// transport. A longer line is answered "error: line exceeds N bytes" and
// ends the connection or script: the scanner has consumed an unknown
// part of it and cannot resynchronise on the next line.
const MaxLineBytes = 1 << 20

// replyTooLong writes the over-long-line reply to w when that is why sc
// stopped, and reports whether it was.
func replyTooLong(w io.Writer, sc *bufio.Scanner) bool {
	if !errors.Is(sc.Err(), bufio.ErrTooLong) {
		return false
	}
	fmt.Fprintf(w, "error: line exceeds %d bytes\n", MaxLineBytes)
	return true
}

// RunScript drives sess from a stream of command lines — standard
// input, a -script file, or a test fixture — until the stream ends or a
// quit command executes. '#' starts a comment. Command errors are part
// of the protocol: they are rendered as "error:" lines on the session's
// writer and never terminate the run; only a line over MaxLineBytes
// does, after its own "error:" line. This is the REPL the wdmserve
// binary has always exposed; the TCP server (tcp.go) speaks the same
// protocol with the same rendering, one session per connection.
func RunScript(sess *Session, r io.Reader) error {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	for scanner.Scan() {
		line := CleanLine(scanner.Text())
		if line == "" {
			continue
		}
		quit, err := sess.Exec(line)
		if err != nil {
			fmt.Fprintf(sess.w, "error: %v\n", err)
		}
		if quit {
			return nil
		}
	}
	replyTooLong(sess.w, scanner)
	return scanner.Err()
}
