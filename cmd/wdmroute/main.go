// Command wdmroute finds an optimal lightpath/semilightpath in a WDM
// network with the centralized algorithm of the reproduced paper
// (Theorem 1), printing the path, its wavelength assignment per link and
// the conversion switch settings.
//
// Usage:
//
//	wdmroute -net instance.json -from 0 -to 6
//	wdmroute -topo nsfnet -k 8 -from 0 -to 13
//	wdmroute -topo paper -from 0 -all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"lightpath/internal/cli"
	"lightpath/internal/core"
	"lightpath/internal/wdm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wdmroute:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("wdmroute", flag.ContinueOnError)
	var nf cli.NetFlags
	nf.Register(fs)
	from := fs.Int("from", 0, "source node")
	to := fs.Int("to", 1, "destination node")
	all := fs.Bool("all", false, "print optimal costs from -from to every node")
	kPaths := fs.Int("paths", 1, "number of alternate semilightpaths to enumerate (Yen)")
	explain := fs.Bool("explain", false, "print the per-hop cost breakdown")
	maxHops := fs.Int("max-hops", 0, "optical reach limit: max physical hops (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -all prints a cost table and -paths > 1 runs Yen's enumeration; neither
	// path reads a hop limit or prints a breakdown, so each refuses the
	// flags it would otherwise ignore.
	for _, c := range []struct {
		set  bool
		a, b string
	}{
		{*all && *kPaths > 1, "-all", "-paths"},
		{*all && *maxHops > 0, "-all", "-max-hops"},
		{*all && *explain, "-all", "-explain"},
		{*kPaths > 1 && *maxHops > 0, "-paths", "-max-hops"},
		{*kPaths > 1 && *explain, "-paths", "-explain"},
	} {
		if c.set {
			return fmt.Errorf("%s cannot be combined with %s", c.a, c.b)
		}
	}

	nw, err := nf.Build()
	if err != nil {
		return err
	}
	if err := cli.ParseEndpoints(nw, *from, *to); err != nil {
		return err
	}
	aux, err := core.NewAux(nw)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "network: %s\n", aux.Stats())

	if *all {
		tree, err := aux.RouteFrom(*from, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "optimal semilightpath costs from node %d:\n", *from)
		for t := 0; t < nw.NumNodes(); t++ {
			if !tree.Reachable(t) {
				fmt.Fprintf(w, "  -> %3d  unreachable\n", t)
				continue
			}
			fmt.Fprintf(w, "  -> %3d  cost %.4g\n", t, tree.Dist(t))
		}
		return nil
	}

	if *kPaths > 1 {
		paths, err := aux.KShortest(*from, *to, *kPaths)
		if errors.Is(err, core.ErrNoRoute) {
			fmt.Fprintf(w, "no semilightpath from %d to %d\n", *from, *to)
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d best semilightpaths %d -> %d:\n", len(paths), *from, *to)
		for i, p := range paths {
			fmt.Fprintf(w, "  #%d cost %-10.6g %s\n", i+1, p.Cost, p.Path.String(nw))
		}
		return nil
	}

	var res *core.Result
	if *maxHops > 0 {
		res, err = aux.RouteBounded(*from, *to, *maxHops, nil)
	} else {
		res, err = aux.Route(*from, *to, nil)
	}
	if errors.Is(err, core.ErrNoRoute) {
		fmt.Fprintf(w, "no semilightpath from %d to %d\n", *from, *to)
		return nil
	}
	if err != nil {
		return err
	}
	printResult(w, nw, res)
	if *explain {
		printBreakdown(w, nw, res)
	}
	return nil
}

func printBreakdown(w io.Writer, nw *wdm.Network, res *core.Result) {
	fmt.Fprintf(w, "  cost breakdown:\n")
	fmt.Fprintf(w, "    %-12s %-6s %10s %10s %12s\n", "hop", "λ", "conversion", "link", "cumulative")
	for _, leg := range res.Path.Breakdown(nw) {
		fmt.Fprintf(w, "    %3d -> %-5d λ%-5d %10.4g %10.4g %12.4g\n",
			leg.From, leg.To, leg.Hop.Wavelength+1, leg.ConvCost, leg.LinkCost, leg.Cumulative)
	}
}

func printResult(w io.Writer, nw *wdm.Network, res *core.Result) {
	fmt.Fprintf(w, "optimal semilightpath %d -> %d\n", res.Source, res.Dest)
	fmt.Fprintf(w, "  cost:  %.6g\n", res.Cost)
	fmt.Fprintf(w, "  path:  %s\n", res.Path.String(nw))
	if res.Path.IsLightpath() {
		fmt.Fprintf(w, "  pure lightpath (no wavelength conversion)\n")
	}
	for _, c := range res.Path.Conversions(nw) {
		fmt.Fprintf(w, "  switch at node %d: λ%d -> λ%d (cost %.4g)\n", c.Node, c.From+1, c.To+1, c.Cost)
	}
	fmt.Fprintf(w, "  search: settled %d aux nodes, %d relaxations\n", res.Stats.Settled, res.Stats.Relaxed)
}
