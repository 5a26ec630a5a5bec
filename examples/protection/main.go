// Protection: provision 1+1 protected circuits — a primary optimal
// semilightpath plus a link-disjoint backup — and enumerate alternate
// routes with K-shortest search. This is the survivability workflow of a
// transport-network control plane.
//
// Run with:
//
//	go run ./examples/protection
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"lightpath"
	"lightpath/internal/core"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

func main() {
	// ARPANET-like backbone with 6 wavelengths and cheap full conversion.
	rng := rand.New(rand.NewSource(7))
	nw, err := workload.Build(topo.ARPANET(), workload.Spec{
		K:         6,
		AvailProb: 0.55,
		Conv:      workload.ConvUniform,
		ConvCost:  0.2,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	router, err := lightpath.NewRouter(nw)
	if err != nil {
		log.Fatal(err)
	}

	demands := [][2]int{{0, 19}, {3, 16}, {6, 13}, {9, 10}}
	fmt.Println("1+1 protected provisioning on the 20-node backbone:")
	for _, d := range demands {
		pair, err := router.RouteProtected(d[0], d[1], nil)
		if errors.Is(err, core.ErrNoBackup) {
			fmt.Printf("  %2d → %2d: primary only — no link-disjoint backup exists\n", d[0], d[1])
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d → %2d: total %.2f\n", d[0], d[1], pair.TotalCost())
		fmt.Printf("      primary (%.2f): %s\n", pair.Primary.Cost, pair.Primary.Path.String(nw))
		fmt.Printf("      backup  (%.2f): %s\n", pair.Backup.Cost, pair.Backup.Path.String(nw))
		if !core.LinkDisjoint(pair.Primary.Path, pair.Backup.Path) {
			log.Fatal("BUG: pair not disjoint")
		}
	}

	// Alternate routing: the five best semilightpaths for one demand.
	fmt.Println("\nfive best alternate routes 0 → 19 (Yen over the layered graph):")
	paths, err := router.KShortest(0, 19, 5)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range paths {
		marker := " "
		if p.Path.IsLightpath() {
			marker = "L" // pure lightpath, no conversion needed
		}
		fmt.Printf("  #%d [%s] cost %.2f  %d hops, %d conversions\n",
			i+1, marker, p.Cost, p.Path.Len(), len(p.Path.Conversions(nw)))
	}
}
