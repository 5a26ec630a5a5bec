package analysis

// Unit tests for the CFG/dataflow core: block construction over the
// branching statements the analyzers rely on (if/for/switch/select/
// defer/goto), no-return call modeling, dead-code reachability, and
// the must-dominate property an intersection meet gives.

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"
)

// loadSrc compiles one source file in a temp dir against the real
// module and returns the package.
func loadSrc(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "src.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadDir(moduleRoot(t), dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return pkgs[0]
}

// cfgOf builds the CFG of the named function.
func cfgOf(t *testing.T, pkg *Package, name string) *CFG {
	t.Helper()
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name && fd.Body != nil {
				return BuildCFG(pkg.Info, fd.Body)
			}
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// reachability runs a trivial dataflow and returns the per-block
// reached flags.
func reachability(cfg *CFG) []bool {
	_, reached := Solve(cfg, FlowProblem[struct{}]{
		Entry:    struct{}{},
		Meet:     func(a, b struct{}) struct{} { return a },
		Transfer: func(s struct{}, blk *Block) struct{} { return s },
		Equal:    func(a, b struct{}) bool { return true },
	})
	return reached
}

// markerBlock finds the block containing a call to the named function.
func markerBlock(cfg *CFG, pkg *Package, callee string) *Block {
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == callee {
						found = true
					}
				}
				return true
			})
			if found {
				return blk
			}
		}
	}
	return nil
}

// hasBackEdge reports whether the CFG contains a cycle (a loop), via
// DFS with an on-stack set — block indices are allocation order, not
// topological order, so they cannot be compared directly.
func hasBackEdge(cfg *CFG) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(cfg.Blocks))
	var visit func(b *Block) bool
	visit = func(b *Block) bool {
		color[b.Index] = gray
		for _, succ := range b.Succs {
			switch color[succ.Index] {
			case gray:
				return true
			case white:
				if visit(succ) {
					return true
				}
			}
		}
		color[b.Index] = black
		return false
	}
	return visit(cfg.Entry)
}

const cfgSrc = `package cfgfix

import (
	"log"
	"os"
	"testing"
)

func marker() {}

func ifElse(c bool) int {
	if c {
		return 1
	}
	return 2
}

func forLoop(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
		if i == 1 {
			continue
		}
		s += i
	}
	return s
}

func switchFall(x int) int {
	s := 0
	switch x {
	case 1:
		s++
		fallthrough
	case 2:
		s += 2
	}
	return s
}

func switchDefault(x int) int {
	switch {
	case x > 0:
		return 1
	default:
		return -1
	}
}

func selectForever() {
	select {}
	marker()
}

func selectCases(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

func gotoLoop() int {
	i := 0
loop:
	i++
	if i < 3 {
		goto loop
	}
	return i
}

func deferred(f *os.File) error {
	defer f.Close()
	marker()
	return nil
}

func exits() {
	os.Exit(1)
	marker()
}

func fatals(t *testing.T) {
	t.Fatal("boom")
	marker()
}

func logFatals() {
	log.Fatalf("boom")
	marker()
}

func deadCode() int {
	return 1
	marker()
	return 2
}
`

func TestCFGConstruction(t *testing.T) {
	pkg := loadSrc(t, cfgSrc)

	cases := []struct {
		fn          string
		exitReached bool
		backEdge    bool
		markerLive  bool // only meaningful when the body calls marker()
	}{
		{fn: "ifElse", exitReached: true},
		{fn: "forLoop", exitReached: true, backEdge: true},
		{fn: "switchFall", exitReached: true},
		{fn: "switchDefault", exitReached: true},
		{fn: "selectForever", exitReached: false, markerLive: false},
		{fn: "selectCases", exitReached: true},
		{fn: "gotoLoop", exitReached: true, backEdge: true},
		{fn: "deferred", exitReached: true, markerLive: true},
		{fn: "exits", exitReached: false, markerLive: false},
		{fn: "fatals", exitReached: false, markerLive: false},
		{fn: "logFatals", exitReached: false, markerLive: false},
		{fn: "deadCode", exitReached: true, markerLive: false},
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			cfg := cfgOf(t, pkg, tc.fn)
			reached := reachability(cfg)
			if got := reached[cfg.Exit.Index]; got != tc.exitReached {
				t.Errorf("exit reached = %v, want %v", got, tc.exitReached)
			}
			if got := hasBackEdge(cfg); got != tc.backEdge {
				t.Errorf("back edge = %v, want %v", got, tc.backEdge)
			}
			if blk := markerBlock(cfg, pkg, "marker"); blk != nil {
				if got := reached[blk.Index]; got != tc.markerLive {
					t.Errorf("marker block reached = %v, want %v", got, tc.markerLive)
				}
			} else if tc.markerLive {
				t.Error("marker call not placed in any block")
			}
		})
	}
}

// TestReversePostorder checks that RPO visits every reachable block and
// orders each loop head before its body.
func TestReversePostorder(t *testing.T) {
	pkg := loadSrc(t, cfgSrc)
	cfg := cfgOf(t, pkg, "forLoop")
	order := cfg.ReversePostorder()
	seen := make(map[int]bool)
	for _, blk := range order {
		seen[blk.Index] = true
	}
	for _, blk := range cfg.Blocks {
		if !seen[blk.Index] {
			t.Errorf("block %d missing from reverse postorder", blk.Index)
		}
	}
	if order[0] != cfg.Entry {
		t.Errorf("reverse postorder starts at block %d, want entry %d", order[0].Index, cfg.Entry.Index)
	}
}

// TestDeadlineDominance drives Solve with an intersection meet, the
// must-dominate form: a fact holds at the exit only if every path
// establishes it. The facts are the deadline kinds a conn method arms:
// an unconditional SetReadDeadline dominates the exit, a conditional
// one does not survive the meet, and SetDeadline arms both kinds.
func TestDeadlineDominance(t *testing.T) {
	pkg := loadSrc(t, `package domfix

import (
	"net"
	"time"
)

func always(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Time{})
}

func sometimes(conn net.Conn, d time.Duration) {
	if d > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(d))
	}
}

func both(conn net.Conn) {
	_ = conn.SetDeadline(time.Time{})
}
`)
	const read, write = uint8(1), uint8(2)
	arms := map[string]uint8{"SetReadDeadline": read, "SetWriteDeadline": write, "SetDeadline": read | write}
	mustArm := FlowProblem[uint8]{
		Meet: func(a, b uint8) uint8 { return a & b },
		Transfer: func(s uint8, blk *Block) uint8 {
			for _, n := range blk.Nodes {
				ast.Inspect(n, func(m ast.Node) bool {
					if sel, ok := m.(*ast.SelectorExpr); ok {
						s |= arms[sel.Sel.Name]
					}
					return true
				})
			}
			return s
		},
		Equal: func(a, b uint8) bool { return a == b },
	}
	exitBits := func(fn string) uint8 {
		cfg := cfgOf(t, pkg, fn)
		in, _ := Solve(cfg, mustArm)
		return in[cfg.Exit.Index]
	}
	if got := exitBits("always"); got != read {
		t.Errorf("always: exit bits = %b, want read", got)
	}
	if got := exitBits("sometimes"); got != 0 {
		t.Errorf("sometimes: exit bits = %b, want 0 (conditional arm must not dominate)", got)
	}
	if got := exitBits("both"); got != read|write {
		t.Errorf("both: exit bits = %b, want read|write", got)
	}
}
