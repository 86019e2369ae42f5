// Package stats computes the graph statistics used throughout the paper:
// the four matching features (edges, hairpins, tripins, triangles) of
// Gleich–Owen moment estimation, and the five descriptive statistics of
// the experimental section (degree distribution, hop plot, scree plot
// inputs, clustering coefficient by degree). All counters are exact;
// see package anf for the sketch-based hop plot approximation.
//
// The feature counters, the per-node triangle pass and the exact hop
// plot are vertex-decomposable (Gleich–Owen's observation that the
// matching moments are sums of per-vertex terms), so each shards the
// vertex range across the worker pool of the *pipeline.Run it is given
// (a nil Run means background on all cores) and checks the Run's
// context between shards. Counts are integers, so the parallel
// reductions are exact and identical for every worker count.
package stats

import (
	"sort"

	"dpkron/internal/graph"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
)

// Features holds the four matching statistics of the observed graph in
// Gleich–Owen notation: E edges, H hairpins (2-stars/wedges), T tripins
// (3-stars) and Delta triangles. Values are float64 because the private
// versions derived from noisy degree sequences are not integral.
type Features struct {
	E     float64 // number of edges
	H     float64 // number of hairpins (wedges)
	T     float64 // number of tripins (3-stars)
	Delta float64 // number of triangles
}

// FeaturesOfCtx computes the exact feature vector of g under a
// pipeline Run: each counter's vertex fan-out checks the context
// between shards, and a "features" stage event pair is emitted. The
// result is identical for every worker count; a cancelled run returns
// run.Err().
func FeaturesOfCtx(run *pipeline.Run, g *graph.Graph) (Features, error) {
	done := run.Stage("features")
	wedges, err := WedgesCtx(run, g)
	if err != nil {
		return Features{}, err
	}
	tripins, err := TripinsCtx(run, g)
	if err != nil {
		return Features{}, err
	}
	tri, err := TrianglesCtx(run, g)
	if err != nil {
		return Features{}, err
	}
	done()
	return Features{
		E:     float64(g.NumEdges()),
		H:     float64(wedges),
		T:     float64(tripins),
		Delta: float64(tri),
	}, nil
}

// FeaturesFromDegrees computes the three degree-derived features from a
// (possibly noisy, non-integral) degree sequence, exactly as Fact 4.6 in
// the paper: E = ½Σdᵢ, H = ½Σdᵢ(dᵢ−1), T = ⅙Σdᵢ(dᵢ−1)(dᵢ−2).
// Delta is left zero; it is supplied by the smooth-sensitivity mechanism.
func FeaturesFromDegrees(d []float64) Features {
	var e, h, t float64
	for _, x := range d {
		e += x
		h += x * (x - 1)
		t += x * (x - 1) * (x - 2)
	}
	return Features{E: e / 2, H: h / 2, T: t / 6}
}

// WedgesCtx returns the number of hairpins (paths of length two, also
// called 2-stars or wedges): Σ_v C(d_v, 2).
func WedgesCtx(run *pipeline.Run, g *graph.Graph) (int64, error) {
	return parallel.SumInt64(run.Context(), run.Workers(), g.NumNodes(), func(lo, hi int) int64 {
		var total int64
		for v := lo; v < hi; v++ {
			d := int64(g.Degree(v))
			total += d * (d - 1) / 2
		}
		return total
	})
}

// TripinsCtx returns the number of 3-stars: Σ_v C(d_v, 3).
func TripinsCtx(run *pipeline.Run, g *graph.Graph) (int64, error) {
	return parallel.SumInt64(run.Context(), run.Workers(), g.NumNodes(), func(lo, hi int) int64 {
		var total int64
		for v := lo; v < hi; v++ {
			d := int64(g.Degree(v))
			total += d * (d - 1) * (d - 2) / 6
		}
		return total
	})
}

// TrianglesCtx returns the exact number of triangles in g. Each
// triangle is found once, at its highest-degree corner, in
// O(Σ over edges of min(d_u, d_v)) time and O(n) scratch per worker;
// the vertex range is sharded under run and the count is identical for
// every worker count.
func TrianglesCtx(run *pipeline.Run, g *graph.Graph) (int64, error) {
	total, _, err := trianglesCtx(run, g, false)
	return total, err
}

// TrianglesPerNodeCtx returns, for every node, the number of
// triangles it participates in; summing the result counts each
// triangle three times. It runs the kernel of TrianglesCtx, crediting
// each triangle's three corners.
func TrianglesPerNodeCtx(run *pipeline.Run, g *graph.Graph) ([]int64, error) {
	_, per, err := trianglesCtx(run, g, true)
	return per, err
}

// trianglesCtx enumerates every triangle of g once, at its top-ranked
// corner, where a node ranks above another if its degree is larger, or
// equal with a smaller id. For each node v it stamps, one by one, the
// neighbours u that rank below v, and before stamping u scans N(u) for
// the neighbours already stamped: each such w closes the triangle
// {v, u, w}, found exactly once, when the later-stamped of u and w is
// scanned. N(v) is walked in ascending id, so every stamped w has
// w < u, and the scan of the sorted N(u) stops at its first w ≥ u,
// with no memory beyond the stamps. The work is therefore the sum over
// edges v–u, u ranked below v, of |N(u) ∩ [0, u)|, which is at most
// Σ over edges of min(d_u, d_v) (the scanned list is the lower-degree
// end of the edge), against Σ_v d_v² for counting two-hop paths.
//
// The vertex range is sharded under run and the Run's context is
// checked between shards. Each worker keeps an O(n) stamp array and, if
// perNode is set, its own per-node counter array (a triangle credits
// corners outside the shard); the integer totals and arrays are summed
// afterwards, so the result is identical for every worker count.
func trianglesCtx(run *pipeline.Run, g *graph.Graph, perNode bool) (int64, []int64, error) {
	n := g.NumNodes()
	off, adj := g.CSR()
	blocks := parallel.Blocks(n, parallel.DefaultShards)
	w := min(run.Workers(), len(blocks))
	type scratch struct {
		stamp []int32 // stamp[u] = v+1 once u is stamped for corner v
		per   []int64
		total int64
	}
	parts := make([]scratch, max(w, 1))
	for i := range parts {
		parts[i].stamp = make([]int32, n)
		if perNode {
			parts[i].per = make([]int64, n)
		}
	}
	err := parallel.RunIndexed(run.Context(), w, len(blocks), func(worker, sh int) {
		sc := &parts[worker]
		stamp, per := sc.stamp, sc.per
		for v := int32(blocks[sh].Lo); v < int32(blocks[sh].Hi); v++ {
			dv, mark := off[v+1]-off[v], v+1
			var found int64
			stamped := false // the first one stamped has nothing to find
			for _, u := range adj[off[v]:off[v+1]] {
				du := off[u+1] - off[u]
				if du > dv || du == dv && u < v {
					continue // u ranks above v
				}
				if stamped {
					for _, w := range adj[off[u]:off[u+1]] {
						if w >= u {
							break // stamped nodes precede u in N(v)
						}
						if stamp[w] == mark {
							found++
							if per != nil {
								per[u]++
								per[w]++
							}
						}
					}
				}
				stamp[u] = mark
				stamped = true
			}
			sc.total += found
			if per != nil {
				per[v] += found
			}
		}
	})
	if err != nil {
		return 0, nil, err
	}
	var total int64
	for _, p := range parts {
		total += p.total
	}
	if !perNode {
		return total, nil, nil
	}
	per := parts[0].per
	for _, p := range parts[1:] {
		for v := range per {
			per[v] += p.per[v]
		}
	}
	return total, per, nil
}

// CommonNeighbors returns |N(u) ∩ N(v)| for two distinct nodes.
func CommonNeighbors(g *graph.Graph, u, v int) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
	count := 0
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		switch {
		case a[i] < b[k]:
			i++
		case a[i] > b[k]:
			k++
		default:
			count++
			i++
			k++
		}
	}
	return count
}

// LocalClusteringCtx returns the local clustering coefficient of every
// node, c_v = 2·tri(v) / (d_v (d_v − 1)), defined as 0 for d_v < 2.
// The per-node triangle pass runs under run (see TrianglesPerNodeCtx).
func LocalClusteringCtx(run *pipeline.Run, g *graph.Graph) ([]float64, error) {
	tri, err := TrianglesPerNodeCtx(run, g)
	if err != nil {
		return nil, err
	}
	out := make([]float64, g.NumNodes())
	for v := range out {
		d := g.Degree(v)
		if d >= 2 {
			out[v] = 2 * float64(tri[v]) / (float64(d) * float64(d-1))
		}
	}
	return out, nil
}

// DegreePoint is one point of a per-degree aggregated series.
type DegreePoint struct {
	Degree int
	Value  float64
	Count  int // number of nodes with this degree
}

// ClusteringByDegreeCtx returns the average local clustering
// coefficient as a function of node degree (the paper's Figure panel
// (e)), over degrees that occur in the graph with d >= 1, sorted
// ascending by degree. The per-node triangle pass runs under run.
func ClusteringByDegreeCtx(run *pipeline.Run, g *graph.Graph) ([]DegreePoint, error) {
	cc, err := LocalClusteringCtx(run, g)
	if err != nil {
		return nil, err
	}
	sum := map[int]float64{}
	cnt := map[int]int{}
	for v := 0; v < g.NumNodes(); v++ {
		d := g.Degree(v)
		if d < 1 {
			continue
		}
		sum[d] += cc[v]
		cnt[d]++
	}
	return aggregate(sum, cnt), nil
}

// DegreeDistribution returns (degree, count-of-nodes) pairs sorted by
// degree ascending, skipping degree 0 to match the paper's log–log plots.
func DegreeDistribution(g *graph.Graph) []DegreePoint {
	cnt := map[int]int{}
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(v); d >= 1 {
			cnt[d]++
		}
	}
	out := make([]DegreePoint, 0, len(cnt))
	for d, c := range cnt {
		out = append(out, DegreePoint{Degree: d, Value: float64(c), Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Degree < out[j].Degree })
	return out
}

func aggregate(sum map[int]float64, cnt map[int]int) []DegreePoint {
	out := make([]DegreePoint, 0, len(sum))
	for d, s := range sum {
		out = append(out, DegreePoint{Degree: d, Value: s / float64(cnt[d]), Count: cnt[d]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Degree < out[j].Degree })
	return out
}

// GlobalClustering returns the transitivity 3Δ/H of a feature vector
// (see FeaturesOfCtx), or 0 when H = 0.
func GlobalClustering(f Features) float64 {
	if f.H == 0 {
		return 0
	}
	return 3 * f.Delta / f.H
}

// ConnectedComponents labels each node with a component id in [0, #comps)
// and returns the labels together with the component sizes.
func ConnectedComponents(g *graph.Graph) (labels []int, sizes []int) {
	n := g.NumNodes()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		id := len(sizes)
		labels[s] = id
		size := 1
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(int(u)) {
				if labels[w] < 0 {
					labels[w] = id
					size++
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return labels, sizes
}

// HopPlotCtx returns the exact hop plot of g: element h is the number
// of ordered node pairs (u, v), including u = v, with shortest-path
// distance at most h. The slice extends to the graph's effective
// diameter, i.e. until the count stops growing. Computed by a BFS from
// every node in O(n·(n+m)) time; use package anf for large graphs.
//
// The per-source sweep is sharded over source-node blocks under run:
// each worker reuses private BFS scratch and accumulates its own
// distance histogram, and the integer histograms are summed
// afterwards, so the result is identical for every worker count. The
// context is checked between source blocks, a "hop-plot" stage event
// pair is emitted, and a cancelled run returns run.Err().
func HopPlotCtx(run *pipeline.Run, g *graph.Graph) ([]int64, error) {
	done := run.Stage("hop-plot")
	n := g.NumNodes()
	w := run.Workers()
	blocks := parallel.Blocks(n, parallel.DefaultShards)
	if w > len(blocks) {
		w = len(blocks)
	}
	type scratch struct {
		pairsAt []int64 // pairsAt[h] = ordered pairs at distance exactly h
		dist    []int32
		queue   []int32
	}
	parts := make([]scratch, w)
	for i := range parts {
		parts[i] = scratch{dist: make([]int32, n), queue: make([]int32, 0, n)}
	}
	err := parallel.RunIndexed(run.Context(), w, len(blocks), func(worker, sh int) {
		sc := &parts[worker]
		dist, queue := sc.dist, sc.queue
		for s := blocks[sh].Lo; s < blocks[sh].Hi; s++ {
			for i := range dist {
				dist[i] = -1
			}
			dist[s] = 0
			queue = append(queue[:0], int32(s))
			grow(&sc.pairsAt, 0)
			sc.pairsAt[0]++
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				du := dist[u]
				for _, w := range g.Neighbors(int(u)) {
					if dist[w] < 0 {
						dist[w] = du + 1
						grow(&sc.pairsAt, int(du+1))
						sc.pairsAt[du+1]++
						queue = append(queue, w)
					}
				}
			}
		}
		sc.queue = queue
	})
	if err != nil {
		return nil, err
	}
	var pairsAt []int64
	for _, p := range parts {
		grow(&pairsAt, len(p.pairsAt)-1)
		for h, c := range p.pairsAt {
			pairsAt[h] += c
		}
	}
	// Cumulative sum.
	out := make([]int64, len(pairsAt))
	var acc int64
	for h, c := range pairsAt {
		acc += c
		out[h] = acc
	}
	done()
	return out, nil
}

func grow(s *[]int64, idx int) {
	for len(*s) <= idx {
		*s = append(*s, 0)
	}
}

// EffectiveDiameter returns the smallest h at which the hop plot reaches
// the given fraction (e.g. 0.9) of its final value, linearly
// interpolated as in SNAP. hop must be a cumulative hop plot.
func EffectiveDiameter(hop []int64, fraction float64) float64 {
	if len(hop) == 0 {
		return 0
	}
	target := fraction * float64(hop[len(hop)-1])
	for h, v := range hop {
		if float64(v) >= target {
			if h == 0 {
				return 0
			}
			prev := float64(hop[h-1])
			return float64(h-1) + (target-prev)/(float64(v)-prev)
		}
	}
	return float64(len(hop) - 1)
}
