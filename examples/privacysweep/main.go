// Privacysweep: quantifies the privacy–utility trade-off of the paper's
// Algorithm 1. For a range of ε it reports how far the private estimate
// lands from the non-private KronMom estimate of the same graph and how
// accurate the released features are — the practical question a data
// owner asks before choosing ε ("meaningful values of ε", §4.2).
//
//	go run ./examples/privacysweep
package main

import (
	"fmt"
	"log"
	"math"

	"dpkron"
)

func main() {
	// Sensitive graph: 4096-node SKG sample in the paper's triangle-rich
	// operating regime.
	model, err := dpkron.NewModel(dpkron.Initiator{A: 0.99, B: 0.55, C: 0.35}, 12)
	if err != nil {
		log.Fatal(err)
	}
	// A nil *dpkron.Run runs each call in the background on all cores.
	g, err := model.SampleCtx(nil, dpkron.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}
	exact, err := dpkron.FeaturesOf(nil, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %.0f edges, %.0f triangles\n\n",
		g.NumNodes(), exact.E, exact.Delta)

	base, err := dpkron.FitMoment(nil, g, 12, dpkron.MomentOptions{Rng: dpkron.NewRand(2)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-private KronMom: %s\n\n", base.Init)

	const trials = 5
	fmt.Printf("%-8s %-22s %-14s %-14s\n", "eps", "mean private (a/b/c)", "param dist", "edge rel err")
	for _, eps := range []float64{0.05, 0.1, 0.2, 0.5, 1.0, 2.0} {
		var sa, sb, sc, dist, edgeErr float64
		for trial := 0; trial < trials; trial++ {
			res, err := dpkron.EstimatePrivate(nil, g, dpkron.PrivateOptions{
				Eps: eps, Delta: 0.01, Rng: dpkron.NewRand(uint64(100*trial) + uint64(eps*1000)),
			})
			if err != nil {
				log.Fatal(err)
			}
			sa += res.Init.A
			sb += res.Init.B
			sc += res.Init.C
			dist += math.Max(math.Abs(res.Init.A-base.Init.A),
				math.Max(math.Abs(res.Init.B-base.Init.B), math.Abs(res.Init.C-base.Init.C)))
			edgeErr += math.Abs(res.Features.E-exact.E) / exact.E
		}
		f := float64(trials)
		fmt.Printf("%-8.2f %.3f/%.3f/%.3f      %-14.4f %-14.4f\n",
			eps, sa/f, sb/f, sc/f, dist/f, edgeErr/f)
	}
	fmt.Println("\nAt eps >= 0.2 the private estimate is within a few hundredths of the")
	fmt.Println("non-private one — the regime the paper calls 'meaningful values of eps'.")
}
