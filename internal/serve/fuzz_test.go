package serve

import (
	"io"
	"strings"
	"sync"
	"testing"

	"lightpath/internal/engine"
	"lightpath/internal/obs"
)

// fuzzEng is shared across fuzz iterations within one worker process:
// mutating verbs (alloc/fail/repair) accumulate state, which widens
// coverage — the parser must stay correct against every engine state
// the protocol itself can reach. The instance is deliberately tiny
// (4-node ring, 2 wavelengths) so enumeration verbs driven with huge
// counts stay bounded. fuzzTracer records every request, so each verb
// runs the span API's lifecycle check.
var (
	fuzzOnce   sync.Once
	fuzzEng    *engine.Engine
	fuzzTracer = obs.NewTracer(nil)
)

func fuzzEngine(t *testing.T) *engine.Engine {
	t.Helper()
	fuzzOnce.Do(func() {
		nw, err := buildNetErr("-topo", "ring", "-n", "4", "-k", "2", "-seed", "2", "-conv", "uniform")
		if err != nil {
			return
		}
		if eng, err := engine.New(nw, nil); err == nil {
			fuzzEng = eng
		}
	})
	if fuzzEng == nil {
		t.Fatal("fuzz engine unavailable")
	}
	return fuzzEng
}

// FuzzProtocolParse throws arbitrary byte strings at the protocol
// front door — CleanLine then Session.Exec — and checks the parser's
// contract: never panic, never report quit except for the quit/exit
// verbs, and render every rejection as a single-line error. The engine
// is shared across iterations, so protocol-reachable mutations compound
// and the lease-accounting invariant is re-checked after every input.
// Every request is traced: a non-blank line records exactly one trace,
// and no input makes a span lifecycle misuse.
func FuzzProtocolParse(f *testing.F) {
	for _, seed := range []string{
		"route 0 3", "routefrom 1", "kshortest 0 2 4", "protect 0 2",
		"batch 0 1 2 3", "alloc 0 3", "release 1", "fail 0", "repair 0",
		"epoch", "stats", "explain 0 2", "trace on", "trace off",
		"metrics", "quit", "exit", "# comment", "  route 0 3  # hi",
		"route x y", "fail 999999999999999999999", "batch 0",
		"\x00\x01", "route 0 3 extra", "kshortest 0 2 1000000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		eng := fuzzEngine(t)
		sess := NewSession(eng, io.Discard, &SessionOptions{Tracer: fuzzTracer})
		clean := CleanLine(line)
		recorded, misuses := fuzzTracer.Recorded(), fuzzTracer.Misuses()
		quit, err := sess.Exec(clean)
		fields := strings.Fields(clean)
		if n := fuzzTracer.Misuses() - misuses; n != 0 {
			t.Fatalf("input %q: %d span lifecycle misuses", line, n)
		}
		if got := fuzzTracer.Recorded() - recorded; len(fields) > 0 && got != 1 {
			t.Fatalf("input %q recorded %d traces, want 1", line, got)
		}
		if quit && (len(fields) == 0 || (fields[0] != "quit" && fields[0] != "exit")) {
			t.Fatalf("input %q requested shutdown", line)
		}
		if err != nil {
			msg := err.Error()
			if msg == "" {
				t.Fatalf("input %q: empty error message", line)
			}
			if strings.ContainsAny(msg, "\n\r") {
				t.Fatalf("input %q: multi-line error %q breaks the wire framing", line, msg)
			}
		}
		st := eng.Stats()
		if st.Allocations-st.Releases != uint64(st.ActiveOwners) {
			t.Fatalf("input %q: lease accounting diverged: %+v", line, st)
		}
	})
}
