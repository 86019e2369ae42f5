// Quickstart: the end-to-end private release workflow.
//
// A data owner holds a sensitive graph. They run the paper's Algorithm 1
// to obtain a differentially private SKG initiator, publish it, and any
// analyst can then sample synthetic graphs that mimic the original.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dpkron"
)

func main() {
	// The sensitive graph: here, a synthetic stand-in sampled from a
	// known SKG so we can see how well the pipeline recovers it. The
	// parameters give a graph with a few thousand triangles — the
	// regime the paper evaluates, where the private triangle count
	// carries signal (see EXPERIMENTS.md for the low-triangle case).
	truth := dpkron.Initiator{A: 0.99, B: 0.55, C: 0.35}
	model, err := dpkron.NewModel(truth, 12) // 4096 nodes
	if err != nil {
		log.Fatal(err)
	}
	// Every long-running call takes a *dpkron.Run first; nil runs in the
	// background on all cores (dpkron.NewRun adds a deadline, a worker
	// budget or progress events).
	sensitive, err := model.SampleCtx(nil, dpkron.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}
	fo, err := dpkron.FeaturesOf(nil, sensitive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensitive graph: %d nodes, %d edges, %.0f triangles\n",
		sensitive.NumNodes(), sensitive.NumEdges(), fo.Delta)

	// Data owner: one call releases an (eps, delta)-DP estimator.
	res, err := dpkron.EstimatePrivate(nil, sensitive, dpkron.PrivateOptions{
		Eps:   0.2,
		Delta: 0.01,
		Rng:   dpkron.NewRand(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("released initiator: %s under %s\n", res.Init, res.Privacy)
	fmt.Printf("generating truth:   %s\n", truth)

	// Analyst: sample a synthetic graph from the published model and
	// compute statistics that never touch the sensitive data.
	synth, err := res.Model().SampleCtx(nil, dpkron.NewRand(3))
	if err != nil {
		log.Fatal(err)
	}
	fs, err := dpkron.FeaturesOf(nil, synth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-12s %12s %12s\n", "feature", "original", "synthetic")
	fmt.Printf("%-12s %12.0f %12.0f\n", "edges", fo.E, fs.E)
	fmt.Printf("%-12s %12.0f %12.0f\n", "hairpins", fo.H, fs.H)
	fmt.Printf("%-12s %12.0f %12.0f\n", "tripins", fo.T, fs.T)
	fmt.Printf("%-12s %12.0f %12.0f\n", "triangles", fo.Delta, fs.Delta)
}
