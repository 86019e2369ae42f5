// Recovery: the paper's synthetic experiment (Table 1, last row) as a
// parameter-recovery study. A graph is generated from known SKG
// parameters and all three estimators — KronFit (approximate MLE),
// KronMom (moment matching) and Private (Algorithm 1) — try to recover
// them. When the modelling assumption holds exactly, everything should
// land near the truth.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"

	"dpkron"
)

func main() {
	truth := dpkron.Initiator{A: 0.99, B: 0.45, C: 0.25}
	const k = 12 // 4096 nodes (the paper uses 2^14; this keeps the example snappy)
	model, err := dpkron.NewModel(truth, k)
	if err != nil {
		log.Fatal(err)
	}
	// A nil *dpkron.Run runs each call in the background on all cores.
	g, err := model.SampleCtx(nil, dpkron.NewRand(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("source: SKG(%s), k=%d -> %d nodes, %d edges\n\n",
		truth, k, g.NumNodes(), g.NumEdges())

	mle, err := dpkron.FitMLE(nil, g, dpkron.MLEOptions{K: k, Rng: dpkron.NewRand(1)})
	if err != nil {
		log.Fatal(err)
	}
	mom, err := dpkron.FitMoment(nil, g, k, dpkron.MomentOptions{Rng: dpkron.NewRand(2)})
	if err != nil {
		log.Fatal(err)
	}
	priv, err := dpkron.EstimatePrivate(nil, g, dpkron.PrivateOptions{
		Eps: 0.2, Delta: 0.01, Rng: dpkron.NewRand(3),
	})
	if err != nil {
		log.Fatal(err)
	}

	rows := []struct {
		name string
		init dpkron.Initiator
	}{
		{"truth", truth},
		{"KronFit", mle.Init},
		{"KronMom", mom.Init},
		{"Private", priv.Init},
	}
	fmt.Printf("%-10s %8s %8s %8s\n", "estimator", "a", "b", "c")
	for _, r := range rows {
		fmt.Printf("%-10s %8.4f %8.4f %8.4f\n", r.name, r.init.A, r.init.B, r.init.C)
	}

	// How well does each estimate reproduce the observed features?
	fmt.Printf("\n%-10s %9s %10s %10s %10s\n", "model", "E[edges]", "E[wedges]", "E[3stars]", "E[tri]")
	obs, err := dpkron.FeaturesOf(nil, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %9.0f %10.0f %10.0f %10.0f\n", "observed", obs.E, obs.H, obs.T, obs.Delta)
	for _, r := range rows[1:] {
		m, err := dpkron.NewModel(r.init, k)
		if err != nil {
			log.Fatal(err)
		}
		ef := m.ExpectedFeatures()
		fmt.Printf("%-10s %9.0f %10.0f %10.0f %10.0f\n", r.name, ef.E, ef.H, ef.T, ef.Delta)
	}
	fmt.Println("\nAll three estimators recover the generating parameters when the")
	fmt.Println("modelling assumption is true — Table 1's synthetic row.")
}
