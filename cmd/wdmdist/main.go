// Command wdmdist runs the distributed semilightpath algorithm of the
// reproduced paper's Section III-B (Theorem 3) in synchronous rounds,
// stepped in node order: messages travel only over physical links, and
// the tool reports the measured message/round counts next to the
// O(km)/O(kn) bounds.
//
// Usage:
//
//	wdmdist -net instance.json -from 0 -to 6
//	wdmdist -topo sparse -n 200 -k 8 -from 0 -to 100
//	wdmdist -topo nsfnet -k 8 -allpairs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"lightpath/internal/cli"
	"lightpath/internal/dist"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wdmdist:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("wdmdist", flag.ContinueOnError)
	var nf cli.NetFlags
	nf.Register(fs)
	from := fs.Int("from", 0, "source node")
	to := fs.Int("to", 1, "destination node")
	allPairs := fs.Bool("allpairs", false, "run the all-pairs algorithm (Corollary 2)")
	pipelined := fs.Bool("pipelined", false, "with -allpairs: one concurrent execution instead of n sequential runs")
	async := fs.Bool("async", false, "use the asynchronous model (random message delays)")
	asyncSeed := fs.Int64("async-seed", 1, "delay randomness seed for -async")
	traceFlag := fs.Bool("trace", false, "print the per-round convergence trace (synchronous mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	nw, err := nf.Build()
	if err != nil {
		return err
	}
	n, m, k := nw.NumNodes(), nw.NumLinks(), nw.K()
	fmt.Fprintf(w, "network: n=%d m=%d k=%d k0=%d\n", n, m, k, nw.MaxChannelsPerLink())

	if *allPairs {
		var (
			costs [][]float64
			stats dist.Stats
		)
		mode := "sequential composition"
		if *pipelined {
			costs, stats, err = dist.AllPairsPipelined(nw)
			mode = "one concurrent execution"
		} else {
			costs, stats, err = dist.AllPairs(nw)
		}
		if err != nil {
			return err
		}
		reach := 0
		for s := range costs {
			for t, c := range costs[s] {
				if s != t && !math.IsInf(c, 1) {
					reach++
				}
			}
		}
		fmt.Fprintf(w, "all-pairs: %d/%d ordered pairs reachable\n", reach, n*(n-1))
		fmt.Fprintf(w, "  messages: %d  (k²n² bound: %d)\n", stats.Messages, k*k*n*n)
		fmt.Fprintf(w, "  rounds:   %d  (%s of %d sources)\n", stats.Rounds, mode, n)
		return nil
	}

	if err := cli.ParseEndpoints(nw, *from, *to); err != nil {
		return err
	}

	if *async {
		res, astats, err := dist.RouteAsync(nw, *from, *to, &dist.AsyncOptions{Seed: *asyncSeed})
		if errors.Is(err, dist.ErrNoRoute) {
			fmt.Fprintf(w, "no semilightpath from %d to %d\n", *from, *to)
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "optimal semilightpath %d -> %d (asynchronous model)\n", *from, *to)
		fmt.Fprintf(w, "  cost: %.6g\n", res.Cost)
		fmt.Fprintf(w, "  path: %s\n", res.Path.String(nw))
		fmt.Fprintf(w, "  messages: %d  virtual time: %.2f  peak in-flight: %d\n",
			astats.Messages, astats.VirtualTime, astats.MaxInFlight)
		return nil
	}

	var trace *dist.Trace
	var res *dist.Result
	if *traceFlag {
		res, trace, err = dist.RouteWithTrace(nw, *from, *to)
	} else {
		res, err = dist.Route(nw, *from, *to)
	}
	if errors.Is(err, dist.ErrNoRoute) {
		fmt.Fprintf(w, "no semilightpath from %d to %d\n", *from, *to)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "optimal semilightpath %d -> %d\n", *from, *to)
	fmt.Fprintf(w, "  cost: %.6g\n", res.Cost)
	fmt.Fprintf(w, "  path: %s\n", res.Path.String(nw))
	fmt.Fprintf(w, "distributed execution (Theorem 3 bounds):\n")
	fmt.Fprintf(w, "  messages: %-8d km bound: %-8d ratio %.3f\n",
		res.Stats.Messages, k*m, float64(res.Stats.Messages)/float64(k*m))
	fmt.Fprintf(w, "  rounds:   %-8d kn bound: %-8d ratio %.3f\n",
		res.Stats.Rounds, k*n, float64(res.Stats.Rounds)/float64(k*n))
	fmt.Fprintf(w, "  max wire load: %d  max node inbox: %d\n",
		res.Stats.MaxWireLoad, res.Stats.MaxNodeInbox)
	if trace != nil {
		fmt.Fprintf(w, "convergence trace:\n")
		trace.Fprint(w)
	}
	return nil
}
