// Package stats computes the graph statistics used throughout the paper:
// the four matching features (edges, hairpins, tripins, triangles) of
// Gleich–Owen moment estimation, and the five descriptive statistics of
// the experimental section (degree distribution, hop plot, scree plot
// inputs, clustering coefficient by degree). All counters are exact;
// see package anf for the sketch-based hop plot approximation.
//
// The feature counters and the per-node triangle pass are
// vertex-decomposable (Gleich–Owen's observation that the matching
// moments are sums of per-vertex terms), so each shards the vertex
// range across the worker pool of the *pipeline.Run it is given (a nil
// Run means background on all cores) and checks the Run's context
// between shards. The exact hop plot shards its sources instead, in
// batches of 16 that one bit-parallel BFS sweeps together, and reports
// fractional progress as the batches finish. Counts are integers, so
// the parallel reductions are exact and identical for every worker
// count.
package stats

import (
	"math/bits"
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
// with no memory beyond the stamps: an n-bit set, cleared after each v
// by walking N(v) again. The work is therefore the sum over edges v–u,
// u ranked below v, of |N(u) ∩ [0, u)|, which is at most Σ over edges
// of min(d_u, d_v) (the scanned list is the lower-degree end of the
// edge), against Σ_v d_v² for counting two-hop paths.
//
// The vertex range is sharded under run and the Run's context is
// checked between shards. Each worker keeps its n-bit stamp set and, if
// perNode is set, its own per-node counter array (a triangle credits
// corners outside the shard); the integer totals and arrays are summed
// afterwards, so the result is identical for every worker count.
func trianglesCtx(run *pipeline.Run, g *graph.Graph, perNode bool) (int64, []int64, error) {
	n := g.NumNodes()
	off, adj := g.CSR()
	blocks := parallel.Blocks(n, parallel.DefaultShards)
	w := min(run.Workers(), len(blocks))
	type scratch struct {
		stamp []uint64 // bit u is set once u is stamped for the current corner
		per   []int64
		total int64
	}
	parts := make([]scratch, max(w, 1))
	for i := range parts {
		parts[i].stamp = make([]uint64, (n+63)/64)
		if perNode {
			parts[i].per = make([]int64, n)
		}
	}
	err := parallel.RunIndexed(run.Context(), w, len(blocks), func(worker, sh int) error {
		sc := &parts[worker]
		stamp, per := sc.stamp, sc.per
		for v := int32(blocks[sh].Lo); v < int32(blocks[sh].Hi); v++ {
			nv := adj[off[v]:off[v+1]]
			dv := off[v+1] - off[v]
			var found int64
			stamped := false // the first one stamped has nothing to find
			for _, u := range nv {
				du := off[u+1] - off[u]
				if du > dv || du == dv && u < v {
					continue // u ranks above v
				}
				if stamped && per == nil {
					found += stampedBelow(adj[off[u]:off[u+1]], u, stamp)
				} else if stamped {
					for _, w := range adj[off[u]:off[u+1]] {
						if w >= u {
							break // stamped nodes precede u in N(v)
						}
						if stamp[w>>6]&(1<<(w&63)) != 0 {
							found++
							per[u]++
							per[w]++
						}
					}
				}
				stamp[u>>6] |= 1 << (u & 63)
				stamped = true
			}
			if stamped {
				for _, u := range nv {
					stamp[u>>6] &^= 1 << (u & 63)
				}
			}
			sc.total += found
			if per != nil {
				per[v] += found
			}
		}
		return nil
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

// stampedBelow counts the nodes of the sorted list nu below u whose bit
// is set in stamp. It is the total-only triangle scan, branch-free so
// that it stays as fast as the int32 stamp compare it replaced.
func stampedBelow(nu []int32, u int32, stamp []uint64) (c int64) {
	for _, w := range nu {
		if w >= u {
			break // stamped nodes precede u in N(v)
		}
		c += int64(stamp[uint32(w)>>6] >> (uint32(w) & 63) & 1)
	}
	return c
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
// distance at most h. The slice ends at the largest finite distance,
// where the count stops growing. It takes O(n·(n+m)) time; use package
// anf for large graphs.
//
// The sources are swept by a bit-parallel multi-source BFS (Then et
// al., "The More the Merrier", VLDB 2015) in batches of 16 consecutive
// non-isolated nodes. Each worker keeps two bits per (node, source):
// unreached (0,0), reached at an earlier level (1,0), frontier (1,1)
// and reached at the next level (0,1). A node's 16 lanes of each bit
// fill a quarter of a uint64, so a level pushes each frontier node's
// lanes to its neighbours with b[w] |= f &^ a[w], and ends one word at
// a time: the next-level lanes b &^ a become the frontier, join a and
// are counted by popcount. A batch thus walks each edge once per level
// at which any of its 16 sources has that edge's end on the frontier,
// instead of once per source. Isolated nodes are counted at distance 0
// and never become sources. The scratch is 4 bytes per node per
// worker (n/4 words of each bit), half of a per-source BFS's distance
// array and queue, and nothing outlives the call.
//
// `dpkron stats` on ball-drop samples of the (0.99, 0.45, 0.25)
// initiator (seed 7), on 2 vCPUs with Go 1.24, takes 0.38 s at K=14,
// 1.55 s at K=15 and 6.9 s at K=16, almost all of it in the hop plot;
// with the per-source BFS it replaced it took 2.2 s, 10.0 s and 37.9 s.
//
// Batches are shards of a parallel.RunIndexed sweep under run, and the
// context is checked between them. Each worker sums its own distance
// histogram; the counts are integers, so the result is identical for
// every worker count. A "hop-plot" stage event pair brackets the call,
// and a pipeline.Run.Counter over the batches reports at most ~100
// rising fractions in between; a cancelled run returns run.Err().
func HopPlotCtx(run *pipeline.Run, g *graph.Graph) ([]int64, error) {
	done := run.Stage("hop-plot")
	n := g.NumNodes()
	if n == 0 {
		done()
		return nil, nil
	}
	off, adj := g.CSR()
	// bounds[i] is the first id of batch i; batch i ends at bounds[i+1].
	var bounds []int32
	sources := 0
	for v := 0; v < n; v++ {
		if off[v+1] > off[v] {
			if sources%hopLanes == 0 {
				bounds = append(bounds, int32(v))
			}
			sources++
		}
	}
	batches := len(bounds)
	bounds = append(bounds, int32(n))
	w := min(run.Workers(), batches)
	type scratch struct {
		pairsAt []int64 // pairsAt[h] = ordered pairs at distance exactly h ≥ 1
		words   []laneWord
	}
	parts := make([]scratch, w)
	words := (n + hopNodesPerWord - 1) / hopNodesPerWord
	for i := range parts {
		parts[i].words = make([]laneWord, words)
	}
	tick := run.Counter("hop-plot", batches)
	err := parallel.RunIndexed(run.Context(), w, batches, func(worker, batch int) error {
		sc := &parts[worker]
		msbfsBatch(off, adj, int(bounds[batch]), int(bounds[batch+1]), sc.words, &sc.pairsAt)
		tick()
		return nil
	})
	if err != nil {
		return nil, err
	}
	pairsAt := []int64{int64(n)} // every node is at distance 0 from itself
	for _, p := range parts {
		grow(&pairsAt, len(p.pairsAt)-1)
		for h, c := range p.pairsAt {
			pairsAt[h] += c
		}
	}
	// Cumulative sum.
	for h := 1; h < len(pairsAt); h++ {
		pairsAt[h] += pairsAt[h-1]
	}
	done()
	return pairsAt, nil
}

const (
	// hopLanes is the number of BFS sources one batch runs together,
	// one bit lane each.
	hopLanes = 16
	// hopNodesPerWord is how many nodes' lanes share one uint64.
	hopNodesPerWord = 64 / hopLanes
)

// laneWord holds the two lane bits (see HopPlotCtx) of hopNodesPerWord
// consecutive nodes, node k of the word in bits [16k, 16k+16) of each.
// The two bits of a node sit side by side, so a push reads and writes
// one cache line.
type laneWord struct{ a, b uint64 }

// msbfsBatch runs the BFS from every non-isolated node in [lo, hi) at
// once, one lane each, and adds the number of (source, node) pairs at
// each distance h ≥ 1 to (*pairsAt)[h]. words is cleared first.
func msbfsBatch(off, adj []int32, lo, hi int, words []laneWord, pairsAt *[]int64) {
	clear(words)
	lane := 0
	for s := lo; s < hi; s++ {
		if off[s+1] > off[s] {
			bit := uint64(1) << (lane + hopLanes*(s%hopNodesPerWord))
			words[s/hopNodesPerWord].a |= bit
			words[s/hopNodesPerWord].b |= bit
			lane++
		}
	}
	for h := 1; ; h++ {
		for i := range words {
			front := words[i].a & words[i].b
			for k := 0; front != 0; k, front = k+1, front>>hopLanes {
				f := front & (1<<hopLanes - 1)
				if f == 0 {
					continue
				}
				u := i*hopNodesPerWord + k
				for _, x := range adj[off[u]:off[u+1]] {
					w := &words[uint32(x)/hopNodesPerWord]
					w.b |= (f << (hopLanes * (uint32(x) % hopNodesPerWord))) &^ w.a
				}
			}
		}
		count := 0
		for i := range words {
			w := &words[i]
			next := w.b &^ w.a
			w.a |= w.b
			w.b = next
			count += bits.OnesCount64(next)
		}
		if count == 0 {
			return
		}
		grow(pairsAt, h)
		(*pairsAt)[h] += int64(count)
	}
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
