package smoothsens

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dpkron/internal/accountant"
	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
)

// memoGraph returns a fresh SKG K=k sample: a graph with an empty memo.
func memoGraph(k int, seed uint64) *graph.Graph {
	m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: k}
	return must(m.SampleExactCtx(nil, randx.New(seed)))
}

// memoised returns the facts stored on g, if any.
func memoised(g *graph.Graph) (facts, bool) {
	v, ok := g.Memo(factsKey{})
	if !ok {
		return facts{}, false
	}
	return v.(facts), true
}

// rawFacts runs the two uncached kernels.
func rawFacts(t *testing.T, g *graph.Graph) facts {
	t.Helper()
	return facts{
		ls:  must(MaxCommonNeighborsCtx(nil, g)),
		tri: must(stats.TrianglesCtx(nil, g)),
	}
}

// TestFactsMemoMatchesRawKernels: the first call computes and stores
// exactly what the raw kernels return, and the second call, a hit,
// returns the same pair.
func TestFactsMemoMatchesRawKernels(t *testing.T) {
	cases := map[string]*graph.Graph{
		"complete7": graph.Complete(7),
		"star9":     graph.Star(9),
		"empty0":    graph.Empty(0),
		"empty6":    graph.Empty(6),
		"edge2":     graph.FromEdges(2, [][2]int{{0, 1}}),
		"skg10":     memoGraph(10, 3),
	}
	for name, g := range cases {
		want := rawFacts(t, g)
		if _, ok := memoised(g); ok {
			t.Fatalf("%s: a fresh graph already holds facts", name)
		}
		for _, call := range []string{"compute", "hit"} {
			ls, tri, err := triangleFacts(pipeline.New(nil, 2, nil), g)
			if err != nil {
				t.Fatal(err)
			}
			if got := (facts{ls, tri}); got != want {
				t.Errorf("%s %s: facts = %+v, raw kernels %+v", name, call, got, want)
			}
			if got, ok := memoised(g); !ok || got != want {
				t.Errorf("%s %s: memo = %+v (stored %v), want %+v", name, call, got, ok, want)
			}
		}
	}
}

// capGraph returns a graph on n ≥ 6 nodes with LS = n−3: nodes 0 and 1
// share the n−3 neighbours 3..n−1, and node 2 hangs off node 0.
// Toggling {1, 2} lifts LS to the cap n−2.
func capGraph(n int) *graph.Graph {
	edges := [][2]int{{0, 2}}
	for w := 3; w < n; w++ {
		edges = append(edges, [2]int{0, w}, [2]int{1, w})
	}
	return graph.FromEdges(n, edges)
}

// TestFactsMemoNeighboursReleaseOwnFacts: once G's facts are memoised,
// each edge-toggled neighbour of G, a new graph, releases with its own
// LS and Δ. The neighbours are chosen so that their facts differ from
// G's: a shared slot, or a memo keyed on anything but the graph, would
// release a neighbour with G's sensitivity.
func TestFactsMemoNeighboursReleaseOwnFacts(t *testing.T) {
	const eps, delta = 0.4, 0.01
	beta := BetaFor(eps, delta)
	g := memoGraph(9, 5)
	ls, a, b := bruteArgMaxCommon(g)
	// w is a neighbour of b but not of a: adding {a, w} makes a and b
	// share one more neighbour, so LS rises by exactly one.
	w := -1
	for _, x := range g.Neighbors(b) {
		if int(x) != a && !g.HasEdge(a, int(x)) {
			w = int(x)
			break
		}
	}
	if w < 0 {
		t.Fatal("no neighbour of b outside N(a)")
	}
	c := capGraph(10)
	type pair struct{ g, h *graph.Graph }
	cases := map[string]pair{
		"max-pair toggled": {g, g.WithEdgeToggled(a, b)},
		"LS+1":             {g, g.WithEdgeToggled(a, w)},
		"cap n-2":          {c, c.WithEdgeToggled(1, 2)},
	}
	for name, p := range cases {
		must(PrivateTrianglesCtx(nil, nil, p.g, eps, delta, randx.New(1)))
		gf, ok := memoised(p.g)
		if !ok || gf != rawFacts(t, p.g) {
			t.Fatalf("%s: G's memo = %+v (stored %v), want %+v", name, gf, ok, rawFacts(t, p.g))
		}
		want := rawFacts(t, p.h)
		if want == gf {
			t.Fatalf("%s: the neighbour's facts %+v equal G's; the case tests nothing", name, want)
		}
		for _, call := range []string{"compute", "hit"} {
			res := must(PrivateTrianglesCtx(nil, nil, p.h, eps, delta, randx.New(1)))
			if res.Exact != want.tri {
				t.Errorf("%s %s: neighbour released Δ = %d, its own is %d", name, call, res.Exact, want.tri)
			}
			if ss := SmoothFromLS(want.ls, p.h.NumNodes(), beta); res.SmoothSen != ss {
				t.Errorf("%s %s: neighbour's SS_β = %v, its own LS %d gives %v", name, call, res.SmoothSen, want.ls, ss)
			}
		}
		if hf, _ := memoised(p.h); hf != want {
			t.Errorf("%s: neighbour's memo = %+v, want %+v", name, hf, want)
		}
		if again, _ := memoised(p.g); again != gf {
			t.Errorf("%s: G's memo changed to %+v from %+v", name, again, gf)
		}
	}
	if got := rawFacts(t, cases["LS+1"].h).ls; got != ls+1 {
		t.Errorf("LS+1 neighbour: LS = %d, want %d", got, ls+1)
	}
	if got := rawFacts(t, cases["cap n-2"].h).ls; got != 8 || rawFacts(t, c).ls != 7 {
		t.Errorf("cap case: LS %d → %d, want 7 → 8 = n−2", rawFacts(t, c).ls, got)
	}
}

// cancelAfter is a context that reports context.Canceled from its
// (n+1)-th Err check on: with one worker the kernels check it at fixed
// points, so cancellation lands at a chosen place in the scan.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestFactsMemoCancelledScanStoresNothing cancels the release at every
// context check of both kernels in turn: each cancelled run returns the
// error, charges nothing and stores nothing, and the first run that is
// never cancelled stores exactly the raw kernels' facts.
func TestFactsMemoCancelledScanStoresNothing(t *testing.T) {
	g := memoGraph(10, 7)
	want := rawFacts(t, g)
	cancelled := 0
	for n := int64(0); ; n++ {
		acc := accountant.New(nil)
		rng := randx.New(4)
		res, err := PrivateTrianglesCtx(pipeline.New(newCancelAfter(n), 1, nil), acc, g, 0.4, 0.01, rng)
		if err == nil {
			if res.Exact != want.tri {
				t.Fatalf("released Δ = %d, raw %d", res.Exact, want.tri)
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("check %d: err = %v, want context.Canceled", n, err)
		}
		if f, ok := memoised(g); ok {
			t.Fatalf("check %d: a cancelled scan stored %+v", n, f)
		}
		if acc.Len() != 0 || rng.Float64() != randx.New(4).Float64() {
			t.Fatalf("check %d: a cancelled scan charged or drew noise", n)
		}
		cancelled++
	}
	// The LS scan checks a few times; the triangle count checks between
	// each of its shards, so most cancellations land inside it.
	if cancelled < 8 {
		t.Fatalf("only %d cancellation points; the count never cancelled mid-scan", cancelled)
	}
	if f, ok := memoised(g); !ok || f != want {
		t.Fatalf("memo after the uncancelled run = %+v (stored %v), want %+v", f, ok, want)
	}
	ls, tri, err := triangleFacts(nil, g)
	if err != nil || (facts{ls, tri}) != want {
		t.Fatalf("next call = (%d, %d, %v), raw %+v", ls, tri, err, want)
	}
}

// TestFactsMemoHitHonoursCancellation: a cancelled run on a graph whose
// facts are memoised still returns the context's error, before any
// charge or noise.
func TestFactsMemoHitHonoursCancellation(t *testing.T) {
	g := memoGraph(9, 11)
	must(PrivateTrianglesCtx(nil, nil, g, 0.4, 0.01, randx.New(1)))
	if _, ok := memoised(g); !ok {
		t.Fatal("release stored no facts")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	acc := accountant.New(nil)
	rng := randx.New(8)
	if _, err := PrivateTrianglesCtx(pipeline.New(ctx, 1, nil), acc, g, 0.4, 0.01, rng); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v on a memo hit, want context.Canceled", err)
	}
	if acc.Len() != 0 {
		t.Errorf("cancelled hit recorded %d charges", acc.Len())
	}
	if rng.Float64() != randx.New(8).Float64() {
		t.Error("cancelled hit consumed randomness")
	}
}

// TestFactsMemoSameSeedBitIdentical: the call that computes the facts
// and a later hit release the same Result for the same seed.
func TestFactsMemoSameSeedBitIdentical(t *testing.T) {
	g := memoGraph(10, 13)
	first := must(PrivateTrianglesCtx(nil, nil, g, 0.4, 0.01, randx.New(6)))
	if hit := must(PrivateTrianglesCtx(nil, nil, g, 0.4, 0.01, randx.New(6))); hit != first {
		t.Errorf("compute %+v, hit %+v", first, hit)
	}
	// A fresh copy of the graph computes again and releases the same.
	if fresh := must(PrivateTrianglesCtx(nil, nil, memoGraph(10, 13), 0.4, 0.01, randx.New(6))); fresh != first {
		t.Errorf("fresh copy %+v, memoised %+v", fresh, first)
	}
}
