package experiments

import (
	"fmt"
	"strings"

	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/smoothsens"
	"dpkron/internal/stats"
)

// SSCompareRow contrasts the smooth sensitivity of the triangle count on
// an SKG sample against a G(n, p) Erdős–Rényi graph of matched size and
// density — the comparison §5 of the paper proposes: Nissim et al.
// analyzed SS_Δ on G(n, p); the paper asks how it behaves on SKGs.
type SSCompareRow struct {
	K      int
	N      int
	Edges  int
	LSSkg  float64
	LSEr   float64
	SSSkg  float64
	SSEr   float64
	TriSkg int64
	TriEr  int64
}

// SmoothSensCompareCtx samples, for each k, one SKG and one G(n, p)
// with p matched to the SKG's realized density, and reports LS and SS_β
// of the triangle count on both, under a pipeline Run: the context is
// checked between k points and inside each sample and scan, and an
// "ss-compare" stage reports per-k progress.
func SmoothSensCompareCtx(run *pipeline.Run, init skg.Initiator, ks []int, eps, delta float64, seed uint64) ([]SSCompareRow, error) {
	done := run.Stage("ss-compare")
	beta := smoothsens.BetaFor(eps/2, delta)
	var rows []SSCompareRow
	for i, k := range ks {
		if err := run.Err(); err != nil {
			return nil, err
		}
		run.Progress("ss-compare", float64(i)/float64(len(ks)))
		m, err := skg.NewModel(init, k)
		if err != nil {
			return nil, err
		}
		g, err := m.SampleCtx(run, randx.New(seed+uint64(k)))
		if err != nil {
			return nil, err
		}
		n := g.NumNodes()
		p := float64(2*g.NumEdges()) / (float64(n) * float64(n-1))
		er := graph.Gnp(n, p, randx.New(seed+uint64(k)+500))
		onSkg, err := scanSensitivity(run, g, beta)
		if err != nil {
			return nil, err
		}
		onEr, err := scanSensitivity(run, er, beta)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SSCompareRow{
			K: k, N: n, Edges: g.NumEdges(),
			LSSkg: onSkg.ls, LSEr: onEr.ls,
			SSSkg: onSkg.ss, SSEr: onEr.ss,
			TriSkg: onSkg.tri, TriEr: onEr.tri,
		})
	}
	done()
	return rows, nil
}

// sensitivity is what the two §5 studies measure on one graph: the
// local sensitivity LS and the smooth sensitivity SS_β of its triangle
// count, and the count itself.
type sensitivity struct {
	ls, ss float64
	tri    int64
}

// scanSensitivity measures g's sensitivity under run, with SS_β at beta.
func scanSensitivity(run *pipeline.Run, g *graph.Graph, beta float64) (sensitivity, error) {
	ls, err := smoothsens.MaxCommonNeighborsCtx(run, g)
	if err != nil {
		return sensitivity{}, err
	}
	tri, err := stats.TrianglesCtx(run, g)
	if err != nil {
		return sensitivity{}, err
	}
	return sensitivity{ls: float64(ls), ss: smoothsens.SmoothFromLS(ls, g.NumNodes(), beta), tri: tri}, nil
}

// RenderSSCompare formats comparison rows.
func RenderSSCompare(rows []SSCompareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-8s %-9s %-8s %-8s %-10s %-10s %-9s %-9s\n",
		"k", "n", "edges", "LS(skg)", "LS(er)", "SS(skg)", "SS(er)", "tri(skg)", "tri(er)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %-8d %-9d %-8.0f %-8.0f %-10.2f %-10.2f %-9d %-9d\n",
			r.K, r.N, r.Edges, r.LSSkg, r.LSEr, r.SSSkg, r.SSEr, r.TriSkg, r.TriEr)
	}
	return b.String()
}
