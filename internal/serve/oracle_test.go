package serve

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/oracle"
)

// explainReply is one parsed multi-line explain answer.
type explainReply struct {
	blocked  bool
	hopSum   float64 // Σ per-hop (conv + link)
	totals   float64 // the "totals: links A + conversions B = T" line's T
	cost     float64 // the "cost %g" line
	searchOK bool    // the terminating "search:" line arrived
	bound    bool    // a "bound:" line (astar's physical pass) preceded it
	cause    string  // blocked form: the "cause:" line's word, "" if absent
}

// readExplain drives one explain command over the wire and parses the
// reply: either the blocked form (summary, the cause when the search
// names one, error line), or header + hop lines + totals + cost +
// bound (astar only) + search terminator.
func readExplain(c *Client, s, d int) (*explainReply, error) {
	if err := c.Send(fmt.Sprintf("explain %d %d", s, d)); err != nil {
		return nil, err
	}
	first, err := c.ReadLine()
	if err != nil {
		return nil, err
	}
	if strings.Contains(first, ": blocked after settling") || strings.HasPrefix(first, "error:") {
		r := &explainReply{blocked: true}
		if !strings.HasPrefix(first, "error:") {
			// The blocked-summary line precedes the error line, with the
			// cause between them when the search names one.
			errLine, err := c.ReadLine()
			if err != nil {
				return nil, err
			}
			if strings.HasPrefix(errLine, "  cause: ") {
				r.cause = strings.Fields(errLine)[1]
				if errLine, err = c.ReadLine(); err != nil {
					return nil, err
				}
			}
			if Classify(errLine) != ReplyBlocked {
				return nil, fmt.Errorf("blocked explain followed by %q", errLine)
			}
		}
		return r, nil
	}
	if !strings.HasPrefix(first, "explain ") {
		return nil, fmt.Errorf("unexpected explain header %q", first)
	}
	r := &explainReply{}
	for {
		line, err := c.ReadLine()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(fields[0], "hop"):
			conv, link, err := hopCosts(fields)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
			r.hopSum += conv + link
		case fields[0] == "totals:":
			// "totals: links A + conversions B = T"
			t, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
			r.totals = t
		case fields[0] == "cost":
			cost, ok := ParseCost(line)
			if !ok {
				return nil, fmt.Errorf("unparseable cost line %q", line)
			}
			r.cost = cost
		case fields[0] == "bound:":
			r.bound = true
		case fields[0] == "search:":
			r.searchOK = true
			return r, nil
		default:
			return nil, fmt.Errorf("unexpected explain line %q", line)
		}
	}
}

// hopCosts pulls the conversion and link cost out of one
// "hop N: F -[λW]-> T  conv C + link L  (cum X)" line.
func hopCosts(fields []string) (conv, link float64, err error) {
	for i, f := range fields {
		if f == "conv" && i+1 < len(fields) {
			if conv, err = strconv.ParseFloat(fields[i+1], 64); err != nil {
				return 0, 0, err
			}
		}
		if f == "link" && i+1 < len(fields) {
			if link, err = strconv.ParseFloat(fields[i+1], 64); err != nil {
				return 0, 0, err
			}
		}
	}
	return conv, link, nil
}

// TestWireRepliesMatchOracle cross-checks the service's routing answers
// against the independent state-graph oracle: for every ordered pair on
// several small random instances, the cost in the route reply and the
// per-hop breakdown in the explain reply (hops, totals line, cost line)
// must all equal oracle.Solve — and blocking must agree exactly. This
// pins the whole wire path: engine → encoding → TCP → parsing.
func TestWireRepliesMatchOracle(t *testing.T) {
	instances := [][]string{
		{"-topo", "paper"},
		{"-topo", "sparse", "-n", "8", "-k", "4", "-seed", "7", "-conv", "uniform"},
		{"-topo", "waxman", "-n", "9", "-k", "3", "-seed", "11", "-conv", "distance"},
		{"-topo", "ring", "-n", "6", "-k", "2", "-seed", "5", "-conv", "none", "-avail", "0.5"},
	}
	for _, flags := range instances {
		flags := flags
		t.Run(strings.Join(flags, "_"), func(t *testing.T) {
			nw := buildNet(t, flags...)
			// wdmserve's default search: its explain carries the bound line
			// and names a cause for every blocked pair.
			eng, err := engine.New(nw, &engine.Options{Directed: core.DirectedAStar})
			if err != nil {
				t.Fatal(err)
			}
			_, addr := startServer(t, eng, &ServerConfig{QueueDepth: 8})
			c := dialT(t, addr)

			n := nw.NumNodes()
			blocked, routed := 0, 0
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s == d {
						continue // explain's trivial-path form has no terminator
					}
					if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
						t.Fatal(err)
					}
					want, _, oErr := oracle.Solve(nw, s, d)

					reply, err := c.Do(fmt.Sprintf("route %d %d", s, d))
					if err != nil {
						t.Fatalf("route %d %d: %v", s, d, err)
					}
					switch Classify(reply) {
					case ReplyBlocked:
						blocked++
						if !errors.Is(oErr, oracle.ErrNoRoute) {
							t.Fatalf("route %d %d blocked on the wire but oracle found cost %g", s, d, want)
						}
					case ReplyOK:
						routed++
						if oErr != nil {
							t.Fatalf("route %d %d answered %q but oracle says %v", s, d, reply, oErr)
						}
						got, ok := ParseCost(reply)
						if !ok {
							t.Fatalf("route %d %d: unparseable reply %q", s, d, reply)
						}
						if math.Abs(got-want) > 1e-9 {
							t.Fatalf("route %d %d: wire cost %g, oracle %g", s, d, got, want)
						}
					default:
						t.Fatalf("route %d %d: unexpected reply %q", s, d, reply)
					}

					ex, err := readExplain(c, s, d)
					if err != nil {
						t.Fatalf("explain %d %d: %v", s, d, err)
					}
					if ex.blocked != (oErr != nil) {
						t.Fatalf("explain %d %d: blocked=%v, oracle err=%v", s, d, ex.blocked, oErr)
					}
					if ex.blocked {
						if ex.cause != core.CausePhysical && ex.cause != core.CauseWavelength {
							t.Fatalf("explain %d %d: blocked with cause %q", s, d, ex.cause)
						}
						continue
					}
					if !ex.bound {
						t.Fatalf("explain %d %d: no bound line before the search line", s, d)
					}
					if !ex.searchOK {
						t.Fatalf("explain %d %d: reply not terminated by a search line", s, d)
					}
					if math.Abs(ex.cost-want) > 1e-9 {
						t.Fatalf("explain %d %d: cost line %g, oracle %g", s, d, ex.cost, want)
					}
					if math.Abs(ex.totals-ex.cost) > 1e-9 {
						t.Fatalf("explain %d %d: totals line %g != cost %g", s, d, ex.totals, ex.cost)
					}
					if math.Abs(ex.hopSum-ex.cost) > 1e-9 {
						t.Fatalf("explain %d %d: per-hop breakdown sums to %g, cost %g", s, d, ex.hopSum, ex.cost)
					}
				}
			}
			if routed == 0 {
				t.Fatalf("instance routed nothing (%d blocked) — not a useful cross-check", blocked)
			}
			t.Logf("%d pairs routed, %d blocked, all matched the oracle", routed, blocked)
		})
	}
}
