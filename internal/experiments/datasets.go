// Package experiments regenerates the paper's evaluation: Table 1
// (parameter comparison across KronFit, KronMom and the private
// Algorithm 1) and Figures 1–4 (five graph statistics overlaid for the
// original graph and synthetic graphs from each estimator), plus the
// extension studies (ε sweep, smooth-sensitivity growth, Dist/Norm
// ablation).
//
// Because the environment is offline, the SNAP datasets are replaced by
// deterministic synthetic stand-ins sampled from the SKG model using the
// paper's published KronMom parameters as generators (see DESIGN.md,
// "Substitutions"). The paper's experimental claims are relative —
// Private ≈ KronMom on the same input, and synthetic samples mimic the
// input's statistics — so they remain checkable on the stand-ins, with
// the added benefit that ground truth is known.
package experiments

import (
	"fmt"

	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// Dataset describes one evaluation graph: the paper's real network it
// stands in for, the SKG parameters used to generate the stand-in, and
// the paper's Table 1 reference estimates.
type Dataset struct {
	Name string
	// Generator of the stand-in graph.
	Source skg.Initiator
	K      int
	Seed   uint64
	// ClosureEdges is the number of triadic-closure edges added on top
	// of the SKG sample. Pure SKG samples are triangle-poor, while the
	// real networks the paper evaluated are triangle-dense (real
	// CA-HepTh has ~28k triangles); the closure pass restores the
	// edge/triangle scale of the originals so the private triangle
	// mechanism operates in the same signal-to-noise regime as in the
	// paper. It also reproduces the clustering-coefficient mismatch the
	// paper reports for the co-authorship graphs in its figure panels
	// (e). Zero for the synthetic dataset, which the paper itself
	// generates as a pure SKG.
	ClosureEdges int
	// Paper-reported size of the real network.
	PaperN, PaperE int
	// Paper's Table 1 estimates (reference values for EXPERIMENTS.md).
	PaperKronFit skg.Initiator
	PaperKronMom skg.Initiator
	PaperPrivate skg.Initiator
	// TrueInit marks datasets whose generator *is* the object to
	// recover (the paper's synthetic row).
	TrueInit bool
}

// Registry lists the four evaluation graphs of the paper in Table 1 /
// Figure order: CA-GrQc (Fig 1), AS20 (Fig 2), CA-HepTh (Fig 3),
// synthetic (Fig 4).
func Registry() []Dataset {
	return []Dataset{
		{
			Name:   "CA-GrQc-like",
			Source: skg.Initiator{A: 1.0, B: 0.4674, C: 0.2790},
			K:      13,
			Seed:   1001,
			// Raises the stand-in's edge count to the real CA-GrQc's
			// 28,980 and its triangle count to collaboration scale.
			ClosureEdges: 13697,
			PaperN:       5242, PaperE: 28980,
			PaperKronFit: skg.Initiator{A: 0.999, B: 0.245, C: 0.691},
			PaperKronMom: skg.Initiator{A: 1.000, B: 0.4674, C: 0.2790},
			PaperPrivate: skg.Initiator{A: 1.000, B: 0.4618, C: 0.2930},
		},
		{
			Name:         "AS20-like",
			Source:       skg.Initiator{A: 1.0, B: 0.6300, C: 0.0},
			K:            13,
			Seed:         1002,
			ClosureEdges: 6368,
			PaperN:       6474, PaperE: 26467,
			PaperKronFit: skg.Initiator{A: 0.987, B: 0.571, C: 0.049},
			PaperKronMom: skg.Initiator{A: 1.000, B: 0.6300, C: 0.000},
			PaperPrivate: skg.Initiator{A: 1.000, B: 0.6286, C: 0.000},
		},
		{
			Name:         "CA-HepTh-like",
			Source:       skg.Initiator{A: 1.0, B: 0.4012, C: 0.3789},
			K:            14,
			Seed:         1003,
			ClosureEdges: 24445,
			PaperN:       9877, PaperE: 51971,
			PaperKronFit: skg.Initiator{A: 0.999, B: 0.271, C: 0.587},
			PaperKronMom: skg.Initiator{A: 1.000, B: 0.4012, C: 0.3789},
			PaperPrivate: skg.Initiator{A: 1.000, B: 0.4048, C: 0.3720},
		},
		{
			Name:   "Synthetic",
			Source: skg.Initiator{A: 0.99, B: 0.45, C: 0.25},
			K:      14,
			Seed:   1004,
			PaperN: 16384, PaperE: 0, // the paper generates it, size follows from the model
			PaperKronFit: skg.Initiator{A: 0.9523, B: 0.4743, C: 0.2493},
			PaperKronMom: skg.Initiator{A: 0.9894, B: 0.5396, C: 0.2388},
			PaperPrivate: skg.Initiator{A: 0.9924, B: 0.5343, C: 0.2466},
			TrueInit:     true,
		},
	}
}

// Lookup returns the dataset with the given name.
func Lookup(name string) (Dataset, error) {
	for _, d := range Registry() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("experiments: unknown dataset %q", name)
}

// GenerateCtx materializes the stand-in graph deterministically under
// a pipeline Run: exact per-pair SKG sampling with the dataset's fixed
// seed, followed by the triadic-closure pass when configured. The graph
// is identical for every worker count. The exact sampler checks the
// context between shards, a "dataset" stage event pair is emitted, and
// a cancelled run returns run.Err().
func (d Dataset) GenerateCtx(run *pipeline.Run) (*graph.Graph, error) {
	done := run.Stage("dataset/" + d.Name)
	m := skg.Model{Init: d.Source, K: d.K}
	g, err := m.SampleExactCtx(run, randx.New(d.Seed))
	if err != nil {
		return nil, err
	}
	if d.ClosureEdges > 0 {
		if err := run.Err(); err != nil {
			return nil, err
		}
		g = TriadicClosure(g, d.ClosureEdges, randx.New(d.Seed^0xabcdef))
	}
	done()
	return g, nil
}

// TriadicClosure adds up to extra distinct wedge-closing edges: a wedge
// centre is drawn with probability proportional to its wedge count, two
// of its neighbours are joined. This densifies triangles the way
// collaboration networks are dense — through common collaborators.
func TriadicClosure(g *graph.Graph, extra int, rng *randx.Rand) *graph.Graph {
	n := g.NumNodes()
	// Cumulative wedge counts for weighted centre sampling.
	cum := make([]float64, n+1)
	for v := 0; v < n; v++ {
		d := float64(g.Degree(v))
		cum[v+1] = cum[v] + d*(d-1)/2
	}
	total := cum[n]
	if total == 0 || extra <= 0 {
		return g
	}
	b := graph.NewBuilder(n)
	seen := make(map[int64]struct{}, g.NumEdges()+extra)
	g.ForEachEdge(func(u, v int) {
		b.AddEdge(u, v)
		seen[int64(u)<<32|int64(v)] = struct{}{}
	})
	added := 0
	for attempts := 0; added < extra && attempts < 100*extra+1000; attempts++ {
		// Sample a wedge centre proportionally to wedge count.
		x := rng.Float64() * total
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		c := lo
		nb := g.Neighbors(c)
		if len(nb) < 2 {
			continue
		}
		i := rng.IntN(len(nb))
		j := rng.IntN(len(nb) - 1)
		if j >= i {
			j++
		}
		u, v := int(nb[i]), int(nb[j])
		if u > v {
			u, v = v, u
		}
		key := int64(u)<<32 | int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(u, v)
		added++
	}
	return b.Build()
}

// Model returns the generating model of the stand-in.
func (d Dataset) Model() skg.Model { return skg.Model{Init: d.Source, K: d.K} }
