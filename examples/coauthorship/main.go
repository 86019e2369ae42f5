// Coauthorship: the paper's motivating scenario on the CA-GrQc-like
// dataset — a co-authorship network curator wants to let researchers
// study degree structure, connectivity and clustering without exposing
// who collaborated with whom.
//
// The example compares all three estimators of the paper's Table 1 on
// the same graph and reports the five descriptive statistics of the
// figure panels for the original versus each synthetic graph.
//
//	go run ./examples/coauthorship
package main

import (
	"fmt"
	"log"

	"dpkron"
)

func main() {
	// Deterministic stand-in for SNAP CA-GrQc (see DESIGN.md): an SKG
	// sample at the paper's published KronMom parameters, k=12 here to
	// keep the example fast (the benchmarks run the full k=13).
	gen, err := dpkron.NewModel(dpkron.Initiator{A: 1.0, B: 0.4674, C: 0.2790}, 12)
	if err != nil {
		log.Fatal(err)
	}
	// A nil *dpkron.Run runs each call in the background on all cores.
	original, err := gen.SampleCtx(nil, dpkron.NewRand(1001))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("co-authorship stand-in: %d nodes, %d edges\n\n",
		original.NumNodes(), original.NumEdges())

	// Fit the three estimators of Table 1.
	mle, err := dpkron.FitMLE(nil, original, dpkron.MLEOptions{K: 12, Iters: 40, Rng: dpkron.NewRand(2)})
	if err != nil {
		log.Fatal(err)
	}
	mom, err := dpkron.FitMoment(nil, original, 12, dpkron.MomentOptions{Rng: dpkron.NewRand(3)})
	if err != nil {
		log.Fatal(err)
	}
	priv, err := dpkron.EstimatePrivate(nil, original, dpkron.PrivateOptions{
		Eps: 0.2, Delta: 0.01, Rng: dpkron.NewRand(4),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("estimates (a/b/c):")
	fmt.Printf("  KronFit  %s\n", mle.Init)
	fmt.Printf("  KronMom  %s\n", mom.Init)
	fmt.Printf("  Private  %s   <- safe to publish under %s\n\n", priv.Init, priv.Privacy)

	// Sample one synthetic graph per estimator and compare statistics.
	models := []struct {
		name string
		init dpkron.Initiator
	}{
		{"KronFit", mle.Init},
		{"KronMom", mom.Init},
		{"Private", priv.Init},
	}
	type row struct {
		name                  string
		edges, tris           float64
		effDiam               float64
		clustering, maxDegree float64
	}
	summarize := func(name string, g *dpkron.Graph) row {
		f, err := dpkron.FeaturesOf(nil, g)
		if err != nil {
			log.Fatal(err)
		}
		hop, err := dpkron.HopPlot(nil, g)
		if err != nil {
			log.Fatal(err)
		}
		// Effective diameter at 90% of reachable pairs.
		target := 0.9 * float64(hop[len(hop)-1])
		eff := 0.0
		for h, v := range hop {
			if float64(v) >= target {
				eff = float64(h)
				break
			}
		}
		globalCC := 0.0
		if f.H > 0 {
			globalCC = 3 * f.Delta / f.H
		}
		return row{name, f.E, f.Delta, eff, globalCC, float64(g.MaxDegree())}
	}
	rows := []row{summarize("Original", original)}
	for i, m := range models {
		model, err := dpkron.NewModel(m.init, 12)
		if err != nil {
			log.Fatal(err)
		}
		synth, err := model.SampleCtx(nil, dpkron.NewRand(uint64(10+i)))
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, summarize(m.name, synth))
	}
	fmt.Printf("%-10s %9s %10s %8s %10s %8s\n",
		"graph", "edges", "triangles", "effDiam", "transit.", "maxDeg")
	for _, r := range rows {
		fmt.Printf("%-10s %9.0f %10.0f %8.0f %10.4f %8.0f\n",
			r.name, r.edges, r.tris, r.effDiam, r.clustering, r.maxDegree)
	}
	fmt.Println("\nThe Private row should track KronMom closely: that is the paper's headline result.")
}
