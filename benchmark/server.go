package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/wdmserve from the repository at root into
// .bench_build/ and returns the binary's path.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "wdmserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wdmserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/wdmserve: %w\n%s", err, out)
	}
	return bin, nil
}

// children tracks every live wdmserve so that no exit path leaves one
// behind: main kills them on return, on a failure and on SIGINT/SIGTERM,
// and Pdeathsig covers a crash of the benchmark itself.
var children struct {
	sync.Mutex
	procs map[*os.Process]struct{}
}

func trackChild(p *os.Process, live bool) {
	children.Lock()
	defer children.Unlock()
	if children.procs == nil {
		children.procs = make(map[*os.Process]struct{})
	}
	if live {
		children.procs[p] = struct{}{}
	} else {
		delete(children.procs, p)
	}
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for p := range children.procs {
		_ = p.Kill() // already gone is fine
	}
}

// serverLog collects the server's stdout and stderr and announces the
// address of the "listening on" line.
type serverLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	seen int // bytes already scanned for the listening line
	addr chan string
}

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.addr == nil {
		return len(p), nil
	}
	for {
		rest := l.buf.Bytes()[l.seen:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		line := string(rest[:nl])
		l.seen += nl + 1
		if after, ok := strings.CutPrefix(line, "listening on "); ok {
			l.addr <- strings.Fields(after)[0]
			l.addr = nil
			break
		}
	}
	return len(p), nil
}

func (l *serverLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// server is one running wdmserve.
type server struct {
	cmd     *exec.Cmd
	log     *serverLog
	addr    string
	started time.Time
	done    chan struct{} // closed once the process has been waited for
	waitErr error         // valid after done
}

// startTimeout bounds exec-to-listening; stopTimeout bounds SIGTERM to
// exit (wdmserve's own drain budget is 5 s).
const (
	startTimeout = 20 * time.Second
	stopTimeout  = 10 * time.Second
)

// startServer execs wdmserve on an ephemeral loopback port with the
// workload's topology flags and every other flag at its default, and
// waits for the listening line.
func startServer(bin string, args []string) (*server, error) {
	addr := make(chan string, 1)
	s := &server{log: &serverLog{addr: addr}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	s.cmd.Stdout = s.log
	s.cmd.Stderr = s.log
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wdmserve: %w", err)
	}
	trackChild(s.cmd.Process, true)
	go func() {
		s.waitErr = s.cmd.Wait()
		trackChild(s.cmd.Process, false)
		close(s.done)
	}()
	select {
	case s.addr = <-addr:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("wdmserve exited before listening: %v\n%s", s.waitErr, s.log)
	case <-time.After(startTimeout):
		s.kill()
		return nil, fmt.Errorf("wdmserve not listening after %s\n%s", startTimeout, s.log)
	}
}

// kill ends the server at once and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already gone is fine
	<-s.done
}

// finalCounts is the server's own account of a round, from the line it
// prints after draining.
type finalCounts struct {
	requests int
	shed     int
}

// stop drains the server with SIGTERM, requires the graceful-drain line
// and returns the counters of the final line.
func (s *server) stop() (finalCounts, error) {
	var fc finalCounts
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fc, fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-s.done:
		if s.waitErr != nil {
			return fc, fmt.Errorf("wdmserve exited after SIGTERM: %v\n%s", s.waitErr, s.log)
		}
	case <-time.After(stopTimeout):
		s.kill()
		return fc, fmt.Errorf("wdmserve still running %s after SIGTERM\n%s", stopTimeout, s.log)
	}
	out := s.log.String()
	if !strings.Contains(out, "drained in ") {
		return fc, fmt.Errorf("no graceful drain in server output\n%s", out)
	}
	i := strings.LastIndex(out, "final: ")
	if i < 0 {
		return fc, fmt.Errorf("no final line in server output\n%s", out)
	}
	// A value that does not parse stays 0 and fails the reconciliation.
	f := strings.Fields(out[i:])
	for j := 0; j+1 < len(f); j++ {
		switch f[j] {
		case "requests":
			fc.requests, _ = strconv.Atoi(f[j+1])
		case "shed":
			fc.shed, _ = strconv.Atoi(f[j+1])
		}
	}
	return fc, nil
}

// clockTick is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat: 100 on every Linux port Go supports.
const clockTick = 100

// cpuSeconds reads the server's user+system CPU time.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis: utime and stime are fields 14 and 15.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat line %q", data)
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB reads the server's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
