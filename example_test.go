package dpkron_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dpkron"
)

// ExampleReadEdgeList parses the SNAP edge-list text format the paper's
// datasets ship in: '#' comments, one whitespace-separated pair per
// line; loops are dropped and duplicate edges merged.
func ExampleReadEdgeList() {
	data := `# toy triangle with a pendant node
0 1
1 2
2 0
2 3
`
	g, err := dpkron.ReadEdgeList(strings.NewReader(data), 0)
	if err != nil {
		log.Fatal(err)
	}
	tri, err := dpkron.Triangles(nil, g) // nil Run: background, all cores
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nodes:", g.NumNodes())
	fmt.Println("edges:", g.NumEdges())
	fmt.Println("triangles:", tri)
	// Output:
	// nodes: 4
	// edges: 4
	// triangles: 1
}

// ExampleEstimatePrivate is the README quick start: a data owner runs
// the paper's Algorithm 1 on a sensitive graph and releases an
// (ε, δ)-differentially private SKG initiator. Here the sensitive graph
// is a synthetic stand-in sampled from a known model so the example is
// self-contained and deterministic.
func ExampleEstimatePrivate() {
	truth := dpkron.Initiator{A: 0.99, B: 0.55, C: 0.35}
	model, err := dpkron.NewModel(truth, 10) // 2^10 = 1024 nodes
	if err != nil {
		log.Fatal(err)
	}
	sensitive, err := model.SampleCtx(nil, dpkron.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}

	// A nil Run is a background run on all cores; see ExampleNewRun
	// for deadlines, worker budgets and progress events.
	res, err := dpkron.EstimatePrivate(nil, sensitive, dpkron.PrivateOptions{
		Eps: 0.2, Delta: 0.01, Rng: dpkron.NewRand(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	// res.Init is the private initiator Θ̃ — safe to publish under the
	// composed guarantee, as are res.Features and res.DegreeSeq.
	fmt.Println("guarantee:", res.Privacy)
	fmt.Println("kronecker power:", res.K)
	fmt.Println("mechanisms charged:", len(res.Charges))
	// Output:
	// guarantee: (0.2, 0.01)-DP
	// kronecker power: 10
	// mechanisms charged: 2
}

// ExampleOpenLedger is the privacy-budgeting workflow: a data owner
// gives a sensitive graph a total (ε, δ) allowance in a persistent
// ledger, then fits against it until the budget runs dry. Each fit is
// debited before it runs (Algorithm 1's charge schedule is known
// upfront), so the third request here is refused — the composed spend
// across releases, not any single release, is what the ledger bounds.
func ExampleOpenLedger() {
	dir, err := os.MkdirTemp("", "dpkron-ledger")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	model, _ := dpkron.NewModel(dpkron.Initiator{A: 0.99, B: 0.55, C: 0.35}, 9)
	sensitive, err := model.SampleCtx(nil, dpkron.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}

	led, err := dpkron.OpenLedger(filepath.Join(dir, "ledger.json"))
	if err != nil {
		log.Fatal(err)
	}
	ds := dpkron.DatasetID(sensitive)
	// Total allowance: (0.625, 0.02) — room for two (0.25, 0.01) fits.
	if err := led.SetBudget(ds, dpkron.Budget{Eps: 0.625, Delta: 0.02}); err != nil {
		log.Fatal(err)
	}

	for i := 1; i <= 3; i++ {
		// Debit first; a refusal means the mechanisms never run.
		if err := led.Spend(ds, dpkron.PlannedReceipt(0.25, 0.01)); err != nil {
			fmt.Printf("fit %d: refused, remaining %s\n", i, led.Remaining(ds))
			continue
		}
		res, err := dpkron.EstimatePrivate(nil, sensitive, dpkron.PrivateOptions{
			Eps: 0.25, Delta: 0.01, Rng: dpkron.NewRand(uint64(i)),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fit %d: spent %s, remaining %s\n", i, res.Privacy, led.Remaining(ds))
	}
	// Output:
	// fit 1: spent (0.25, 0.01)-DP, remaining (0.375, 0.01)-DP
	// fit 2: spent (0.25, 0.01)-DP, remaining (0.125, 0)-DP
	// fit 3: refused, remaining (0.125, 0)-DP
}

// ExampleNewRun runs Algorithm 1 under a pipeline Run: the context
// bounds the wall time (cancellation aborts with the context's error,
// never a perturbed result), the worker budget caps parallelism, and
// the released estimate is bit-identical to a nil-Run (background, all
// cores) call for the same seed.
func ExampleNewRun() {
	model, err := dpkron.NewModel(dpkron.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	if err != nil {
		log.Fatal(err)
	}
	sensitive, err := model.SampleCtx(nil, dpkron.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	run := dpkron.NewRun(ctx, 4, nil) // ctx, worker budget, no progress sink

	res, err := dpkron.EstimatePrivate(run, sensitive, dpkron.PrivateOptions{
		Eps: 0.2, Delta: 0.01, Rng: dpkron.NewRand(2),
	})
	if err != nil {
		log.Fatal(err) // context.DeadlineExceeded if the minute ran out
	}

	background, err := dpkron.EstimatePrivate(nil, sensitive, dpkron.PrivateOptions{
		Eps: 0.2, Delta: 0.01, Rng: dpkron.NewRand(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("guarantee:", res.Privacy)
	fmt.Println("identical to nil-Run call:", res.Init == background.Init)
	// Output:
	// guarantee: (0.2, 0.01)-DP
	// identical to nil-Run call: true
}

// ExampleProgressSink shows the stage/progress event stream: a sink
// passed to NewRun receives one event pair per pipeline stage (Frac 0
// on start, 1 on completion), which is how `dpkron -progress` and the
// `dpkron serve` job API surface live progress. Events arrive
// serialized — the sink needs no locking.
func ExampleProgressSink() {
	model, err := dpkron.NewModel(dpkron.Initiator{A: 0.99, B: 0.55, C: 0.35}, 9)
	if err != nil {
		log.Fatal(err)
	}
	sensitive, err := model.SampleCtx(nil, dpkron.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}

	var started []string
	sink := func(e dpkron.ProgressEvent) {
		if e.Frac == 0 { // stage start; e.Done() marks completion
			started = append(started, e.Stage)
		}
	}
	run := dpkron.NewRun(context.Background(), 2, sink)
	if _, err := dpkron.EstimatePrivate(run, sensitive, dpkron.PrivateOptions{
		Eps: 0.5, Delta: 0.01, Rng: dpkron.NewRand(7),
	}); err != nil {
		log.Fatal(err)
	}
	for _, s := range started {
		fmt.Println(s)
	}
	// Output:
	// algorithm1/degree-release
	// algorithm1/feature-derivation
	// algorithm1/triangle-release
	// algorithm1/moment-fit
	// algorithm1/moment-fit/kronmom
}

// ExamplePrivateResult_Model closes the loop of the paper's workflow:
// the released initiator defines an SKG model from which anyone can
// sample synthetic graphs that mimic the sensitive original.
func ExamplePrivateResult_Model() {
	model, err := dpkron.NewModel(dpkron.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	if err != nil {
		log.Fatal(err)
	}
	sensitive, err := model.SampleCtx(nil, dpkron.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}
	res, err := dpkron.EstimatePrivate(nil, sensitive, dpkron.PrivateOptions{
		Eps: 0.2, Delta: 0.01, Rng: dpkron.NewRand(2),
	})
	if err != nil {
		log.Fatal(err)
	}

	synth, err := res.Model().SampleCtx(nil, dpkron.NewRand(3)) // post-processing: costs no privacy
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("synthetic nodes:", synth.NumNodes())
	fmt.Println("same node count as original:", synth.NumNodes() == sensitive.NumNodes())
	// Output:
	// synthetic nodes: 1024
	// same node count as original: true
}

// ExampleOpenStore is the register-once, query-many workflow: a
// sensitive graph is imported into the persistent dataset store a
// single time, and every subsequent fit loads it by its
// content-addressed id — no re-shipping or re-parsing of the edge
// list. The stored binary form is bit-identical to the text parse, so
// fixed-seed fits of the stored dataset reproduce fits of the source
// exactly.
func ExampleOpenStore() {
	dir, err := os.MkdirTemp("", "dpkron-store")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The sensitive graph, as it would arrive: edge-list text.
	model, _ := dpkron.NewModel(dpkron.Initiator{A: 0.99, B: 0.55, C: 0.35}, 9)
	var edgeList strings.Builder
	sensitive, err := model.SampleCtx(nil, dpkron.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := sensitive.WriteEdgeList(&edgeList); err != nil {
		log.Fatal(err)
	}

	// Import once...
	store, err := dpkron.OpenStore(filepath.Join(dir, "datasets"))
	if err != nil {
		log.Fatal(err)
	}
	meta, err := dpkron.ImportDataset(store, strings.NewReader(edgeList.String()), "example")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("imported nodes:", meta.Nodes)
	fmt.Printf("stored layout: DPKG v%d\n", meta.Format)

	// ...fit twice by id. Each load reads the same stored bytes, so
	// equal seeds give equal releases (and a ledger keyed by meta.ID
	// would meter both against one account).
	var inits []dpkron.Initiator
	for seed := uint64(1); seed <= 2; seed++ {
		g, err := store.Load(meta.ID)
		if err != nil {
			log.Fatal(err)
		}
		res, err := dpkron.EstimatePrivate(nil, g, dpkron.PrivateOptions{
			Eps: 0.25, Delta: 0.01, Rng: dpkron.NewRand(seed),
		})
		if err != nil {
			log.Fatal(err)
		}
		inits = append(inits, res.Init)
	}
	fmt.Println("fits completed:", len(inits))
	fmt.Println("store id stable:", meta.ID == dpkron.DatasetID(mustLoad(store, meta.ID)))
	// Output:
	// imported nodes: 512
	// stored layout: DPKG v2
	// fits completed: 2
	// store id stable: true
}

func mustLoad(s *dpkron.DatasetStore, id string) *dpkron.Graph {
	g, err := s.Load(id)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// ExampleOpenReleaseCache memoizes a private release: the first fit of
// a question (dataset, ε, δ, K, seed) computes and debits the ledger;
// re-asking the identical question is answered from the cache — pure
// post-processing of an already-released value, so it costs zero
// budget even though the ledger is exhausted.
func ExampleOpenReleaseCache() {
	dir, err := os.MkdirTemp("", "dpkron-releases")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	model, _ := dpkron.NewModel(dpkron.Initiator{A: 0.99, B: 0.55, C: 0.35}, 9)
	sensitive, err := model.SampleCtx(nil, dpkron.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}

	led, err := dpkron.OpenLedger(filepath.Join(dir, "ledger.json"))
	if err != nil {
		log.Fatal(err)
	}
	ds := dpkron.DatasetID(sensitive)
	// Allowance for exactly one (0.25, 0.01) fit.
	if err := led.SetBudget(ds, dpkron.Budget{Eps: 0.25, Delta: 0.01}); err != nil {
		log.Fatal(err)
	}
	cache, err := dpkron.OpenReleaseCache(filepath.Join(dir, "cache"))
	if err != nil {
		log.Fatal(err)
	}

	key := dpkron.ReleaseKeyFor(ds, 0.25, 0.01, 9, 7)
	for i := 1; i <= 2; i++ {
		if _, ok := cache.Get(key); ok {
			fmt.Printf("fit %d: served from cache (no budget spent)\n", i)
			continue
		}
		// Miss: debit first, then run the mechanisms and memoize.
		if err := led.Spend(ds, dpkron.PlannedReceipt(0.25, 0.01)); err != nil {
			log.Fatal(err)
		}
		res, err := dpkron.EstimatePrivate(nil, sensitive, dpkron.PrivateOptions{
			Eps: 0.25, Delta: 0.01, K: 9, Rng: dpkron.NewRand(7),
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := cache.Put(key, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fit %d: computed, spent %s\n", i, res.Privacy)
	}
	fmt.Println("remaining:", led.Remaining(ds))
	// Output:
	// fit 1: computed, spent (0.25, 0.01)-DP
	// fit 2: served from cache (no budget spent)
	// remaining: (0, 0)-DP
}
