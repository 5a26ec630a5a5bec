// Command wdmsim runs online circuit-switching simulations: connection
// requests arrive as a Poisson process, each is admitted over the
// residual wavelength capacity with the paper's routing algorithm (or
// blocked), and holds its channels for an exponential time. The tool
// sweeps offered load and prints the blocking-probability curve — the
// classic dynamic-RWA experiment the paper's introduction motivates.
//
// Usage:
//
//	wdmsim -topo nsfnet -k 8 -requests 5000
//	wdmsim -net instance.json -loads 1,2,4,8,16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lightpath"
	"lightpath/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wdmsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("wdmsim", flag.ContinueOnError)
	var nf cli.NetFlags
	nf.Register(fs)
	requests := fs.Int("requests", 2000, "connection requests per load point")
	policyArg := fs.String("policy", "optimal", "admission policy: optimal|first-fit|most-used|least-used|random-fit")
	loadsArg := fs.String("loads", "1,2,4,8,16,32", "comma-separated offered loads (Erlangs)")
	simSeed := fs.Int64("sim-seed", 7, "traffic randomness seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	loads, err := parseLoads(*loadsArg)
	if err != nil {
		return err
	}
	var policy lightpath.AdmissionPolicy // parsed by the names String prints
	for p := lightpath.PolicyOptimal; p <= lightpath.PolicyRandomFit; p++ {
		if p.String() == *policyArg {
			policy = p
		}
	}
	if policy == 0 {
		return fmt.Errorf("unknown policy %q", *policyArg)
	}

	nw, err := nf.Build()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "online circuit switching (%s policy): n=%d m=%d k=%d channels=%d, %d requests/point\n",
		policy, nw.NumNodes(), nw.NumLinks(), nw.K(), nw.TotalChannels(), *requests)
	fmt.Fprintf(w, "%10s %10s %10s %10s %12s %12s %10s\n",
		"load(E)", "admitted", "blocked", "P(block)", "mean active", "mean util", "mean cost")

	for _, load := range loads {
		m, err := lightpath.NewSessionManager(nw)
		if err != nil {
			return err
		}
		res, err := lightpath.SimulateTraffic(m, lightpath.TrafficConfig{
			Requests: *requests,
			Load:     load,
			Seed:     *simSeed,
			Policy:   policy,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10.2f %10d %10d %10.4f %12.2f %12.4f %10.3f\n",
			load, res.Stats.Admitted, res.Stats.Blocked,
			res.Stats.BlockingProbability(), res.MeanActive,
			res.MeanUtilization, res.MeanCost)
	}
	return nil
}

func parseLoads(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	loads := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", p, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("loads must be positive, got %v", v)
		}
		loads = append(loads, v)
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("no loads given")
	}
	return loads, nil
}
