// Package graph implements the undirected simple graph store used by every
// other package in this module. Graphs are immutable after construction and
// held in compressed sparse row (CSR) form with sorted adjacency lists, so
// neighbour iteration is cache-friendly and edge membership is a binary
// search. Node identifiers are dense integers in [0, NumNodes).
//
// The package also provides the edge-list text format used by SNAP
// (whitespace-separated pairs, '#' comments), which the paper's datasets
// ship in.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"dpkron/internal/parallel"
)

// Graph is an immutable undirected simple graph (no self-loops, no
// multi-edges) in CSR form. The zero value is an empty graph with no nodes.
type Graph struct {
	off []int32 // len n+1; adjacency of v is adj[off[v]:off[v+1]]
	adj []int32 // concatenated sorted neighbour lists; each edge appears twice
}

// CSR returns the graph's raw CSR arrays: off has length NumNodes()+1
// and adj holds the concatenated sorted adjacency (each edge twice).
// The slices alias internal storage and must not be modified.
func (g *Graph) CSR() (off, adj []int32) { return g.off, g.adj }

// FromCSR wraps externally owned CSR arrays as a Graph without
// copying. The caller vouches for the invariants Validate checks
// (monotone offsets, sorted symmetric adjacency, len(off) = n+1,
// len(adj) = off[n]); the mmap-backed dataset loader is the intended
// caller, keeping a stored graph's adjacency paged by the OS instead
// of decoded onto the heap. The arrays must stay immutable and alive
// for the life of the Graph.
func FromCSR(off, adj []int32) *Graph { return &Graph{off: off, adj: adj} }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.off[v]:g.off[v+1]]
}

// HasEdge reports whether the undirected edge {u, v} is present.
// Self-queries (u == v) always return false.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	// Search from the lower-degree endpoint.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nb := g.Neighbors(u)
	t := int32(v)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= t })
	return i < len(nb) && nb[i] == t
}

// Degrees returns the degree of every node.
func (g *Graph) Degrees() []int {
	n := g.NumNodes()
	d := make([]int, n)
	for v := 0; v < n; v++ {
		d[v] = g.Degree(v)
	}
	return d
}

// MaxDegree returns the largest degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	maxd := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(v); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int)) {
	for u := 0; u < g.NumNodes(); u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// Edges returns all undirected edges with u < v, in lexicographic order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.NumEdges())
	g.ForEachEdge(func(u, v int) { out = append(out, [2]int{u, v}) })
	return out
}

// WithEdgeToggled returns a copy of g with edge {u, v} added if absent or
// removed if present. It is the edge-neighbourhood operation from
// Definition 4.1 of the paper and is used by the differential privacy
// tests. It panics if u == v or either endpoint is out of range.
func (g *Graph) WithEdgeToggled(u, v int) *Graph {
	n := g.NumNodes()
	if u == v || u < 0 || v < 0 || u >= n || v >= n {
		panic(fmt.Sprintf("graph: invalid edge toggle (%d, %d) on %d nodes", u, v, n))
	}
	// Splice the CSR arrays directly in O(n + m): only the rows of u and
	// v change, each by exactly one sorted neighbour. The smooth
	// sensitivity scan and the DP tests call this in tight loops, where
	// rebuilding through a Builder (sort + dedupe) was the dominant cost.
	had := g.HasEdge(u, v)
	delta := 1
	if had {
		delta = -1
	}
	h := &Graph{
		off: make([]int32, n+1),
		adj: make([]int32, len(g.adj)+2*delta),
	}
	pos := int32(0)
	for w := 0; w < n; w++ {
		h.off[w] = pos
		nb := g.Neighbors(w)
		switch w {
		case u:
			pos = spliceRow(h.adj, pos, nb, int32(v), had)
		case v:
			pos = spliceRow(h.adj, pos, nb, int32(u), had)
		default:
			copy(h.adj[pos:], nb)
			pos += int32(len(nb))
		}
	}
	h.off[n] = pos
	return h
}

// spliceRow copies the sorted row nb into dst at pos with the neighbour
// t removed (remove = true) or inserted at its sorted position, and
// returns the new cursor.
func spliceRow(dst []int32, pos int32, nb []int32, t int32, remove bool) int32 {
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= t })
	copy(dst[pos:], nb[:i])
	pos += int32(i)
	if remove {
		i++ // nb[i] == t: skip it
	} else {
		dst[pos] = t
		pos++
	}
	copy(dst[pos:], nb[i:])
	return pos + int32(len(nb)-i)
}

// Equal reports whether two graphs have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumNodes() != h.NumNodes() || len(g.adj) != len(h.adj) {
		return false
	}
	for i := range g.off {
		if g.off[i] != h.off[i] {
			return false
		}
	}
	for i := range g.adj {
		if g.adj[i] != h.adj[i] {
			return false
		}
	}
	return true
}

// Validate checks the CSR invariants: sorted adjacency, no loops, no
// duplicate neighbours, and symmetry. It is O(m log m) and intended for
// tests and after deserialization.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.off) > 0 && g.off[0] != 0 {
		return fmt.Errorf("graph: off[0] = %d, want 0", g.off[0])
	}
	for v := 0; v < n; v++ {
		if g.off[v+1] < g.off[v] {
			return fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
		nb := g.Neighbors(v)
		for i, w := range nb {
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at node %d", v)
			}
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: neighbour %d of node %d out of range", w, v)
			}
			if i > 0 && nb[i-1] >= w {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", v)
			}
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: edge (%d,%d) present but (%d,%d) missing", v, w, w, v)
			}
		}
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Self-loops
// are dropped and duplicate edges are merged, matching the paper's
// convention that realized graphs are simple and undirected.
type Builder struct {
	n     int
	pairs []int64 // packed (min<<32 | max) per undirected edge mention
	// buf and scratch are reusable sort buffers so repeated Build calls
	// (the experiment sweeps build thousands of sampled graphs) stop
	// re-allocating; they hold no state between calls.
	buf, scratch []int64
}

// NewBuilder returns a Builder for a graph on n nodes. It panics if n < 0
// or n exceeds the 2^31-1 node-id limit of the CSR representation.
func NewBuilder(n int) *Builder {
	if n < 0 || n > 1<<31-1 {
		panic(fmt.Sprintf("graph: invalid node count %d", n))
	}
	return &Builder{n: n}
}

// NewBuilderCap is NewBuilder with the edge-mention slice pre-sized to
// edgeHint, avoiding append-regrowth churn when the caller knows the
// sample size in advance (samplers, FromEdges, file loaders).
func NewBuilderCap(n, edgeHint int) *Builder {
	b := NewBuilder(n)
	if edgeHint > 0 {
		b.pairs = make([]int64, 0, edgeHint)
	}
	return b
}

// AddEdge records the undirected edge {u, v}. Loops are ignored.
// It panics if either endpoint is out of range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d, %d) out of range [0, %d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.pairs = append(b.pairs, int64(u)<<32|int64(v))
}

// AddPackedEdges records edge mentions already packed in the Builder's
// key format, int64(u)<<32|int64(v) with u < v. It is the bulk path the
// samplers use once they hold deduplicated key slices. It panics if any
// key is malformed or out of range.
func (b *Builder) AddPackedEdges(keys []int64) {
	for _, key := range keys {
		u, v := int(key>>32), int(key&0xffffffff)
		if u < 0 || u >= v || v >= b.n {
			panic(fmt.Sprintf("graph: packed edge (%d, %d) invalid on %d nodes", u, v, b.n))
		}
	}
	b.pairs = append(b.pairs, keys...)
}

// NumPending returns the number of edge mentions recorded so far
// (duplicates included).
func (b *Builder) NumPending() int { return len(b.pairs) }

// Build produces the Graph on the calling goroutine; it is
// BuildWorkers(1). The Builder may be reused afterwards; its
// accumulated edges are retained, and the sort buffers are kept so
// repeated Build calls allocate only the returned CSR arrays.
func (b *Builder) Build() *Graph { return b.BuildWorkers(1) }

// BuildWorkers is Build with the sort sharded over up to workers
// goroutines (<= 0 selects runtime.GOMAXPROCS(0)); the samplers pass
// their Run's worker budget through so nested parallelism stays under
// the caller's control. The resulting graph is identical for every worker
// count.
//
// The edge mentions are ordered with an LSD radix sort on the packed
// int64 pair keys (parallel.SortInt64) instead of a comparison sort —
// already-sorted input, which the bulk sampler path produces, is
// detected and skipped — and the resulting graph is identical to what a
// comparison-sorted Build produced.
func (b *Builder) BuildWorkers(workers int) *Graph {
	if cap(b.buf) < len(b.pairs) {
		b.buf = make([]int64, len(b.pairs))
	}
	pairs := b.buf[:len(b.pairs)]
	copy(pairs, b.pairs)
	if !slices.IsSorted(pairs) {
		b.scratch, _ = parallel.SortInt64(nil, workers, pairs, b.scratch) // a nil context cannot fail
	}
	// Dedupe.
	uniq := pairs[:0]
	var prev int64 = -1
	for _, p := range pairs {
		if p != prev {
			uniq = append(uniq, p)
			prev = p
		}
	}
	g := &Graph{
		off: make([]int32, b.n+1),
		adj: make([]int32, 2*len(uniq)),
	}
	// Count degrees.
	for _, p := range uniq {
		u, v := int32(p>>32), int32(p&0xffffffff)
		g.off[u+1]++
		g.off[v+1]++
	}
	for i := 1; i <= b.n; i++ {
		g.off[i] += g.off[i-1]
	}
	// Fill. uniq is sorted by (u, v), so per-row fills are in increasing
	// order for the u side; the v side also ends up sorted because for a
	// fixed v the u values arrive in increasing order and are placed
	// sequentially—but interleaving with the u side can break ordering,
	// so fill in two passes to keep each row sorted without a final sort.
	cursor := make([]int32, b.n)
	for _, p := range uniq { // pass 1: neighbours smaller than the row node
		u, v := p>>32, p&0xffffffff // u < v: u gains v later; v gains u now
		g.adj[g.off[v]+cursor[v]] = int32(u)
		cursor[v]++
	}
	for _, p := range uniq { // pass 2: neighbours larger than the row node
		u, v := p>>32, p&0xffffffff
		g.adj[g.off[u]+cursor[u]] = int32(v)
		cursor[u]++
	}
	return g
}

// Absorb appends every edge mention recorded in o into b, leaving o
// unchanged. It is how per-shard builders produced by parallel samplers
// are merged before a single Build; duplicates across shards are merged
// by Build as usual. It panics if the node counts differ.
func (b *Builder) Absorb(o *Builder) {
	if o.n != b.n {
		panic(fmt.Sprintf("graph: Absorb node count mismatch: %d != %d", o.n, b.n))
	}
	b.pairs = append(b.pairs, o.pairs...)
}

// FromEdges builds a graph on n nodes from an edge slice. Loops are
// dropped and duplicates merged.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilderCap(n, len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilderCap(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Empty returns the edgeless graph on n nodes.
func Empty(n int) *Graph { return NewBuilder(n).Build() }

// Path returns the path graph 0-1-...-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// Cycle returns the cycle graph on n >= 3 nodes.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Build()
}

// Star returns the star graph with centre 0 and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}
