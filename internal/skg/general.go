package skg

import (
	"fmt"
	"math"

	"dpkron/internal/graph"
	"dpkron/internal/randx"
	"dpkron/internal/stats"
)

// GeneralModel is a stochastic Kronecker graph with an arbitrary
// symmetric N1×N1 initiator matrix, on N1^K nodes. The paper fixes
// N1 = 2 following the model-selection analysis of Leskovec et al.
// (§3.3: "having N1 > 2 does not accrue a significant advantage");
// this type exists to test that claim and to support the general model.
// The closed-form expected features generalize the 2×2 formulas: every
// term is a per-level aggregate over the initiator's rows and diagonal.
type GeneralModel struct {
	Theta [][]float64
	K     int
}

// NewGeneralModel validates the initiator (square, symmetric, entries in
// [0, 1], N1 >= 2) and the power K (N1^K must fit in an int).
func NewGeneralModel(theta [][]float64, k int) (GeneralModel, error) {
	n1 := len(theta)
	if n1 < 2 {
		return GeneralModel{}, fmt.Errorf("skg: initiator must be at least 2x2, got %d", n1)
	}
	for i, row := range theta {
		if len(row) != n1 {
			return GeneralModel{}, fmt.Errorf("skg: initiator row %d has %d entries, want %d", i, len(row), n1)
		}
		for j, v := range row {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return GeneralModel{}, fmt.Errorf("skg: initiator entry (%d,%d) = %v outside [0, 1]", i, j, v)
			}
			if math.Abs(v-theta[j][i]) > 1e-12 {
				return GeneralModel{}, fmt.Errorf("skg: initiator not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if k < 1 {
		return GeneralModel{}, fmt.Errorf("skg: K = %d must be >= 1", k)
	}
	nodes := 1.0
	for i := 0; i < k; i++ {
		nodes *= float64(n1)
		if nodes > 1<<31 {
			return GeneralModel{}, fmt.Errorf("skg: %d^%d nodes is too large", n1, k)
		}
	}
	return GeneralModel{Theta: theta, K: k}, nil
}

// N1 returns the initiator dimension.
func (m GeneralModel) N1() int { return len(m.Theta) }

// NumNodes returns N1^K.
func (m GeneralModel) NumNodes() int {
	n := 1
	for i := 0; i < m.K; i++ {
		n *= m.N1()
	}
	return n
}

// EdgeProb returns P_uv by decomposing u and v into base-N1 digits.
func (m GeneralModel) EdgeProb(u, v int) float64 {
	n1 := m.N1()
	p := 1.0
	for level := 0; level < m.K; level++ {
		p *= m.Theta[u%n1][v%n1]
		u /= n1
		v /= n1
	}
	return p
}

// ExpectedFeatures returns the closed-form expected counts of the four
// matching statistics over undirected realizations, generalizing
// Equation 1 to arbitrary symmetric initiators.
func (m GeneralModel) ExpectedFeatures() stats.Features {
	n1 := m.N1()
	k := float64(m.K)
	pk := func(x float64) float64 { return math.Pow(x, k) }

	// Per-level aggregates over rows i of Θ: r_i row sum, d_i diagonal,
	// s_i row sum of squares, plus whole-matrix sums.
	var sumAll, trace float64
	var rowSq, rowD, sumSq, diagSq float64
	var rowCu, rowS, sumCu, rowSqD, rowD2, dS, diag3 float64
	var triPaths float64
	for i := 0; i < n1; i++ {
		var r, s float64
		for j := 0; j < n1; j++ {
			v := m.Theta[i][j]
			r += v
			s += v * v
			sumSq += v * v
			sumCu += v * v * v
		}
		d := m.Theta[i][i]
		sumAll += r
		trace += d
		rowSq += r * r
		rowD += r * d
		diagSq += d * d
		rowCu += r * r * r
		rowS += r * s
		rowSqD += r * r * d
		rowD2 += r * d * d
		dS += d * s
		diag3 += d * d * d
	}
	for x := 0; x < n1; x++ {
		for y := 0; y < n1; y++ {
			for z := 0; z < n1; z++ {
				triPaths += m.Theta[x][y] * m.Theta[y][z] * m.Theta[z][x]
			}
		}
	}

	e := 0.5 * (pk(sumAll) - pk(trace))
	h := 0.5 * (pk(rowSq) - 2*pk(rowD) - pk(sumSq) + 2*pk(diagSq))
	delta := (pk(triPaths) - 3*pk(dS) + 2*pk(diag3)) / 6
	t := (pk(rowCu) - 3*pk(rowS) + 2*pk(sumCu) -
		3*pk(rowSqD) + 6*pk(rowD2) + 3*pk(dS) - 6*pk(diag3)) / 6
	return stats.Features{E: e, H: h, T: t, Delta: delta}
}

// ProbMatrix materializes P; guarded against large models.
func (m GeneralModel) ProbMatrix() [][]float64 {
	n := m.NumNodes()
	if n > 4096 {
		panic(fmt.Sprintf("skg: ProbMatrix on %d nodes is too large", n))
	}
	out := make([][]float64, n)
	for u := 0; u < n; u++ {
		out[u] = make([]float64, n)
		for v := 0; v < n; v++ {
			out[u][v] = m.EdgeProb(u, v)
		}
	}
	return out
}

// SampleExact draws an undirected simple graph with independent edge
// coins, O(n²·K).
func (m GeneralModel) SampleExact(rng *randx.Rand) *graph.Graph {
	n := m.NumNodes()
	b := graph.NewBuilderCap(n, int(m.ExpectedFeatures().E*1.2)+16)
	for u := 1; u < n; u++ {
		for v := 0; v < u; v++ {
			if rng.Float64() < m.EdgeProb(u, v) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}
