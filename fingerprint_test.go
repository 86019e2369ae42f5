package dpkron_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpkron"
	"dpkron/internal/accountant"
	"dpkron/internal/anf"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/degseq"
	"dpkron/internal/dp"
	"dpkron/internal/experiments"
	"dpkron/internal/extsort"
	"dpkron/internal/graph"
	"dpkron/internal/kronfit"
	"dpkron/internal/kronmom"
	"dpkron/internal/linalg"
	"dpkron/internal/obs"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/release"
	"dpkron/internal/server"
	"dpkron/internal/skg"
	"dpkron/internal/smoothsens"
	"dpkron/internal/stats"
	"dpkron/internal/trace"
)

// Pinned release fingerprints, captured before the context-aware
// pipeline existed. Every refactor since — cancellation, accounting,
// stores, streaming, serving, telemetry — is pure plumbing, so each
// route below must still release exactly these bits for the same
// seeds.
const (
	pinGraphK10     = uint64(0x6c10859be86b36ad) // exact sample, k=10, seed 42
	pinBallDrop     = uint64(0x782fb2c09f8882ef) // ball drop, k=12, seed 7, 3000 edges
	pinEstimateInit = uint64(0x1c23d17293445957) // Algorithm 1 initiator, ε=0.5 δ=0.01 seed 9
	pinEstimateFeat = uint64(0x297d918e6156a3fb) // Algorithm 1 private features
	pinExactFeat    = uint64(0x42b1d41f1ac6a497) // exact features of the k=10 graph
	pinKronFit      = uint64(0x9bbc8c400e943082) // KronFit, 12 iterations, seed 13
	pinKronMom      = uint64(0x25efa408aca92c5f) // KronMom, seed 17
	pinANF          = uint64(0xaf33ea602570793)  // ANF hop plot, 16 trials, seed 21
	pinTriangles    = uint64(0x982b28ed09bc9fe4) // smooth-sensitivity triangles, ε=0.3 seed 23
	pinScree        = uint64(0x15b0b395a249059)  // top-16 scree values, seed 29
	pinNetValues    = uint64(0x908559add58d1d35) // leading 32 network values, seed 31
	pinSweep        = uint64(0x72b37f8215b9d1ca) // ε ∈ {0.2, 1} sweep, 2 trials, seed 37
)

// fpRow is one (route, pinned hash) row: hash computes the route's
// fingerprint, which must equal pin.
type fpRow struct {
	route string
	pin   uint64
	hash  func(t *testing.T) uint64
}

// checkPins runs every row as a subtest named after its route.
func checkPins(t *testing.T, rows []fpRow) {
	t.Helper()
	for _, r := range rows {
		t.Run(r.route, func(t *testing.T) {
			if got := r.hash(t); got != r.pin {
				t.Errorf("fingerprint = %#x, want %#x", got, r.pin)
			}
		})
	}
}

// memo caches one computation shared by several rows (an estimate
// pins both its initiator and its features).
func memo[T any](f func(t *testing.T) T) func(t *testing.T) T {
	var v T
	done := false
	return func(t *testing.T) T {
		if !done {
			v, done = f(t), true
		}
		return v
	}
}

func fpHashGraph(g *graph.Graph) uint64 {
	h := fnv.New64a()
	g.ForEachEdge(func(u, v int) {
		fmt.Fprintf(h, "%d,%d;", u, v)
	})
	return h.Sum64()
}

func fpHashFloats(xs ...float64) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		fmt.Fprintf(h, "%.17g;", x)
	}
	return h.Sum64()
}

func fpHashFeatures(f stats.Features) uint64 { return fpHashFloats(f.E, f.H, f.T, f.Delta) }

// estimateRows pins the initiator and private features of one
// Algorithm 1 release.
func estimateRows(route string, res func(t *testing.T) *core.Result) []fpRow {
	res = memo(res)
	return []fpRow{
		{route + "/initiator", pinEstimateInit, func(t *testing.T) uint64 {
			r := res(t)
			return fpHashFloats(r.Init.A, r.Init.B, r.Init.C)
		}},
		{route + "/features", pinEstimateFeat, func(t *testing.T) uint64 { return fpHashFeatures(res(t).Features) }},
	}
}

// jsonEstimateRows pins the initiator and features of a fit result
// decoded from the HTTP API or the release cache.
func jsonEstimateRows(route string, res func(t *testing.T) map[string]any) []fpRow {
	res = memo(res)
	return []fpRow{
		{route + "/initiator", pinEstimateInit, func(t *testing.T) uint64 {
			init := res(t)["initiator"].(map[string]any)
			return fpHashFloats(init["a"].(float64), init["b"].(float64), init["c"].(float64))
		}},
		{route + "/features", pinEstimateFeat, func(t *testing.T) uint64 {
			f, ok := res(t)["features"].(map[string]any)
			if !ok {
				t.Fatal("fit result carries no features")
			}
			return fpHashFloats(f["e"].(float64), f["h"].(float64), f["t"].(float64), f["delta"].(float64))
		}},
	}
}

// liveRun returns a Run whose context carries a cancellation signal
// that never fires, so the context checks run on every shard. Shared
// with the PipelineOverhead benchmark, which measures exactly the path
// these tests pin.
func liveRun(tb testing.TB, workers int) *pipeline.Run {
	tb.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	return pipeline.New(ctx, workers, nil)
}

func fpGraphK10(t *testing.T) *graph.Graph {
	t.Helper()
	m, err := skg.NewModel(skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.SampleExactCtx(pipeline.New(nil, 4, nil), randx.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fpEstimate runs Algorithm 1 on g with the pinned seed and budget.
func fpEstimate(t *testing.T, run *pipeline.Run, g *graph.Graph, acc *accountant.Accountant) *core.Result {
	t.Helper()
	res, err := core.EstimateCtx(run, g, core.Options{Eps: 0.5, Delta: 0.01, Rng: randx.New(9), Accountant: acc})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFingerprintSamplers(t *testing.T) {
	checkPins(t, []fpRow{
		{"skg.SampleExactCtx", pinGraphK10, func(t *testing.T) uint64 {
			m, _ := skg.NewModel(skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
			return fpHashGraph(must(m.SampleExactCtx(liveRun(t, 4), randx.New(42))))
		}},
		{"skg.SampleBallDropNCtx", pinBallDrop, func(t *testing.T) uint64 {
			m, _ := skg.NewModel(skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, 12)
			return fpHashGraph(must(m.SampleBallDropNCtx(liveRun(t, 4), randx.New(7), 3000)))
		}},
		{"skg.SampleBallDropNCtx/nil-run", pinBallDrop, func(t *testing.T) uint64 {
			m, _ := skg.NewModel(skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, 12)
			return fpHashGraph(must(m.SampleBallDropNCtx(nil, randx.New(7), 3000)))
		}},
	})
}

func TestFingerprintEstimateAndFeatures(t *testing.T) {
	g := fpGraphK10(t)
	rows := estimateRows("core.EstimateCtx", func(t *testing.T) *core.Result { return fpEstimate(t, liveRun(t, 4), g, nil) })
	rows = append(rows, estimateRows("dpkron.EstimatePrivate/nil-run", func(t *testing.T) *core.Result {
		return must(dpkron.EstimatePrivate(nil, g, dpkron.PrivateOptions{Eps: 0.5, Delta: 0.01, Rng: randx.New(9)}))
	})...)
	checkPins(t, append(rows,
		fpRow{"stats.FeaturesOfCtx", pinExactFeat, func(t *testing.T) uint64 {
			return fpHashFeatures(must(stats.FeaturesOfCtx(liveRun(t, 4), g)))
		}},
		fpRow{"dpkron.FeaturesOf/nil-run", pinExactFeat, func(t *testing.T) uint64 {
			return fpHashFeatures(must(dpkron.FeaturesOf(nil, g)))
		}},
	))
}

func TestFingerprintBaselineEstimators(t *testing.T) {
	g := fpGraphK10(t)
	checkPins(t, []fpRow{
		{"kronfit.FitCtx", pinKronFit, func(t *testing.T) uint64 {
			kf := must(kronfit.FitCtx(liveRun(t, 4), g, kronfit.Options{K: 10, Iters: 12, Rng: randx.New(13)}))
			return fpHashFloats(kf.Init.A, kf.Init.B, kf.Init.C, kf.LogLikelihood)
		}},
		{"kronmom.FitGraphCtx", pinKronMom, func(t *testing.T) uint64 {
			km := must(kronmom.FitGraphCtx(liveRun(t, 4), g, 10, kronmom.Options{Rng: randx.New(17)}))
			return fpHashFloats(km.Init.A, km.Init.B, km.Init.C, km.Objective)
		}},
	})
}

func TestFingerprintStatisticsPaths(t *testing.T) {
	g := fpGraphK10(t)
	checkPins(t, []fpRow{
		{"anf.HopPlotCtx", pinANF, func(t *testing.T) uint64 {
			return fpHashFloats(must(anf.HopPlotCtx(liveRun(t, 4), g, anf.Options{Trials: 16, Rng: randx.New(21)}))...)
		}},
		{"smoothsens.PrivateTrianglesCtx", pinTriangles, func(t *testing.T) uint64 {
			tri := must(smoothsens.PrivateTrianglesCtx(liveRun(t, 4), nil, g, 0.3, 0.01, randx.New(23)))
			return fpHashFloats(tri.Noisy, float64(tri.Exact), tri.SmoothSen, tri.Scale)
		}},
		{"linalg.ScreeValuesCtx", pinScree, func(t *testing.T) uint64 {
			return fpHashFloats(must(linalg.ScreeValuesCtx(liveRun(t, 1), g, 16, randx.New(29)))...)
		}},
		{"linalg.NetworkValuesCtx", pinNetValues, func(t *testing.T) uint64 {
			return fpHashFloats(must(linalg.NetworkValuesCtx(liveRun(t, 1), g, randx.New(31)))[:32]...)
		}},
	})
}

func TestFingerprintEpsilonSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep fingerprint is slow")
	}
	g := fpGraphK10(t)
	checkPins(t, []fpRow{{"experiments.EpsilonSweepCtx", pinSweep, func(t *testing.T) uint64 {
		rows := must(experiments.EpsilonSweepCtx(liveRun(t, 4), g, 10, []float64{0.2, 1}, 0.01, 2, 37))
		var vals []float64
		for _, r := range rows {
			vals = append(vals, r.Eps, r.MeanParamDiff, r.MeanFeatureErr)
		}
		return fpHashFloats(vals...)
	}}})
}

// TestFingerprintAccountedEstimate re-pins the estimate through a live
// accountant with the tightest limit that still admits the run, so the
// enforcement branch itself is exercised, and checks that the realized
// charges are exactly the planned ones.
func TestFingerprintAccountedEstimate(t *testing.T) {
	g := fpGraphK10(t)
	acc := accountant.New(nil).WithLimit(dp.Budget{Eps: 0.5, Delta: 0.01})
	res := fpEstimate(t, liveRun(t, 4), g, acc)
	checkPins(t, estimateRows("core.EstimateCtx/accounted", func(*testing.T) *core.Result { return res }))
	rec := acc.Receipt()
	if len(rec.Charges) != 2 {
		t.Fatalf("receipt charges = %d, want 2", len(rec.Charges))
	}
	planned := core.PlannedReceipt(0.5, 0.01)
	for i := range rec.Charges {
		if rec.Charges[i] != planned.Charges[i] {
			t.Errorf("charge %d: realized %+v != planned %+v", i, rec.Charges[i], planned.Charges[i])
		}
	}
	if res.Receipt.Total != rec.Total {
		t.Errorf("result receipt total %v != accountant total %v", res.Receipt.Total, rec.Total)
	}
}

func TestFingerprintAccountedMechanisms(t *testing.T) {
	g := fpGraphK10(t)

	acc := accountant.New(nil)
	got, err := degseq.PrivateAcc(acc, g, 0.25, randx.New(19))
	if err != nil {
		t.Fatal(err)
	}
	want := degseq.Private(g, 0.25, randx.New(19))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PrivateAcc[%d] = %v, Private = %v", i, got[i], want[i])
		}
	}
	if ch := acc.Charges(); len(ch) != 1 || ch[0].Query != degseq.Query || ch[0].Sensitivity != degseq.GlobalSensitivity {
		t.Fatalf("degseq charge = %+v", acc.Charges())
	}

	checkPins(t, []fpRow{{"smoothsens.PrivateTrianglesCtx/accounted", pinTriangles, func(t *testing.T) uint64 {
		tri := must(smoothsens.PrivateTrianglesCtx(liveRun(t, 4), accountant.New(nil), g, 0.3, 0.01, randx.New(23)))
		return fpHashFloats(tri.Noisy, float64(tri.Exact), tri.SmoothSen, tri.Scale)
	}}})
}

// TestAccountedEstimateRefusalDrawsNoNoise: a refused charge aborts
// before its mechanism consumes randomness, so a rerun with a fresh
// accountant releases exactly what an unconstrained run releases — the
// refusal cannot skew later draws.
func TestAccountedEstimateRefusalDrawsNoNoise(t *testing.T) {
	g := fpGraphK10(t)
	rng := randx.New(9)
	acc := accountant.New(nil).WithLimit(dp.Budget{Eps: 0.1, Delta: 0.01})
	if _, err := core.EstimateCtx(liveRun(t, 4), g, core.Options{
		Eps: 0.5, Delta: 0.01, Rng: rng, Accountant: acc,
	}); err == nil {
		t.Fatal("over-limit estimate succeeded")
	}
	if acc.Len() != 0 {
		t.Fatalf("refused run recorded %d charges", acc.Len())
	}
	checkPins(t, []fpRow{{"core.EstimateCtx/after-refusal", pinEstimateInit, func(t *testing.T) uint64 {
		res := must(core.EstimateCtx(liveRun(t, 4), g, core.Options{Eps: 0.5, Delta: 0.01, Rng: rng}))
		return fpHashFloats(res.Init.A, res.Init.B, res.Init.C)
	}}})
}

// loadedGraphRows pins Algorithm 1 on every loaded copy of g: each must
// equal the original, keep its content-addressed dataset id, and
// release the pinned bits.
func loadedGraphRows(g *graph.Graph, id string, routes map[string]*graph.Graph) []fpRow {
	var rows []fpRow
	for label, got := range routes {
		rows = append(rows, estimateRows(label, func(t *testing.T) *core.Result {
			if !g.Equal(got) {
				t.Fatal("graph differs from the original")
			}
			if gotID := accountant.DatasetID(got); gotID != id {
				t.Errorf("dataset id %s != %s", gotID, id)
			}
			acc := accountant.New(nil).WithLimit(dp.Budget{Eps: 0.5, Delta: 0.01})
			return fpEstimate(t, liveRun(t, 4), got, acc)
		})...)
	}
	return rows
}

func TestFingerprintStoredDatasetEstimate(t *testing.T) {
	g := fpGraphK10(t)
	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	fromText, err := graph.ReadEdgeList(&text, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A DPKG v1 file written by an older binary's store: the layout is
	// no longer written, but stored datasets in it must still load.
	legacy, err := os.ReadFile("testdata/fp_k10.v1.dpkg")
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := dataset.Unmarshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dataset.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := store.Put(g, "fingerprint", "generated")
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != accountant.DatasetID(g) {
		t.Fatalf("store id %s != ledger fingerprint %s", meta.ID, accountant.DatasetID(g))
	}
	fromStore, err := store.Load(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkPins(t, loadedGraphRows(g, meta.ID, map[string]*graph.Graph{
		"text-parse":  fromText,
		"binary-load": fromBinary,
		"store-load":  fromStore,
	}))
}

// TestFingerprintV2Routes extends the store pins to the v2 layout: the
// v2 codec and a v2 store load (mmap-backed on unix).
func TestFingerprintV2Routes(t *testing.T) {
	g := fpGraphK10(t)
	fromV2, err := dataset.Unmarshal(encodeV2(t, g))
	if err != nil {
		t.Fatal(err)
	}
	store, err := dataset.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := store.Put(g, "fingerprint", "generated")
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != accountant.DatasetID(g) {
		t.Fatalf("v2 store id %s != ledger fingerprint %s", meta.ID, accountant.DatasetID(g))
	}
	fromMmap, err := store.Load(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkPins(t, loadedGraphRows(g, meta.ID, map[string]*graph.Graph{
		"v2-binary":    fromV2,
		"v2-mmap-load": fromMmap,
	}))
}

// encodeV2 renders g in the DPKG v2 layout in memory.
func encodeV2(tb testing.TB, g *graph.Graph) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := dataset.EncodeV2(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestFingerprintStreamingReadEdgeList(t *testing.T) {
	g := fpGraphK10(t)
	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	checkPins(t, []fpRow{{"graph.ReadEdgeList", pinGraphK10, func(t *testing.T) uint64 {
		return fpHashGraph(must(graph.ReadEdgeList(bytes.NewReader(text.Bytes()), 0)))
	}}})
}

// TestFingerprintStreamedGenerate pins the streaming samplers: the
// spilled exact-sample edge set, written straight into the store and
// loaded back, must hash to the in-memory sample's fingerprint.
func TestFingerprintStreamedGenerate(t *testing.T) {
	m, err := skg.NewModel(skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	if err != nil {
		t.Fatal(err)
	}
	sorter, err := extsort.NewTemp(nil, 1<<12) // small chunks: force real spills
	if err != nil {
		t.Fatal(err)
	}
	defer sorter.RemoveAll()
	es, err := m.StreamExactCtx(liveRun(t, 4), randx.New(42), sorter)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	store, err := dataset.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := store.PutStream(es, "streamed", "generated")
	if err != nil {
		t.Fatal(err)
	}
	g, err := store.Load(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkPins(t, []fpRow{{"skg.StreamExactCtx+dataset.PutStream", pinGraphK10, func(*testing.T) uint64 { return fpHashGraph(g) }}})
	if id := accountant.DatasetID(g); id != meta.ID {
		t.Errorf("streamed dataset id %s != recomputed %s", meta.ID, id)
	}
	if !fpGraphK10(t).Equal(g) {
		t.Error("streamed store load differs from the in-memory sample")
	}
}

// TestFingerprintStreamedBallDropWorkerInvariance: the streamed
// ball-drop edge set is identical for every worker count and chunk
// size — the same invariance contract the in-memory sampler pins.
func TestFingerprintStreamedBallDropWorkerInvariance(t *testing.T) {
	m, err := skg.NewModel(skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, 14)
	if err != nil {
		t.Fatal(err)
	}
	const target = 12000
	want := uint64(0)
	for i, cfg := range []struct{ workers, chunk int }{
		{1, 1 << 20}, {4, 1 << 10}, {8, 257},
	} {
		sorter, err := extsort.NewTemp(nil, cfg.chunk)
		if err != nil {
			t.Fatal(err)
		}
		es, err := m.StreamBallDropNCtx(pipeline.New(nil, cfg.workers, nil), randx.New(11), target, sorter)
		if err != nil {
			t.Fatal(err)
		}
		store, err := dataset.Open(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		meta, _, err := store.PutStream(es, "inv", "generated")
		if err != nil {
			t.Fatal(err)
		}
		g, err := store.Load(meta.ID)
		if err != nil {
			t.Fatal(err)
		}
		fp := fpHashGraph(g)
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Errorf("workers=%d chunk=%d: fingerprint %#x != %#x", cfg.workers, cfg.chunk, fp, want)
		}
		es.Close()
		sorter.RemoveAll()
	}
}

// fpFitBody is the JSON body of the pinned private fit request.
func fpFitBody(t *testing.T) []byte {
	t.Helper()
	var text bytes.Buffer
	if err := fpGraphK10(t).WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(map[string]any{
		"method": "private", "eps": 0.5, "delta": 0.01, "k": 10, "seed": 9,
		"edgelist": text.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fpPostFit submits body to POST /v1/fit, returning the status, the
// response headers and the decoded job view.
func fpPostFit(t *testing.T, base string, body []byte) (int, http.Header, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/fit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, view
}

// fpAwait polls a job until it is done and returns its result.
func fpAwait(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch job["status"] {
		case "done":
			return job["result"].(map[string]any)
		case "failed", "cancelled":
			t.Fatalf("job %s ended %v: %v", id, job["status"], job)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fpServeFit starts a server with opts, submits the pinned fit and
// waits for it, returning the submit response headers, the job id and
// the result.
func fpServeFit(t *testing.T, opts server.Options) (*httptest.Server, http.Header, string, map[string]any) {
	t.Helper()
	srv := server.New(opts)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	code, hdr, sub := fpPostFit(t, ts.URL, fpFitBody(t))
	if code != http.StatusAccepted {
		t.Fatalf("fit submit: %d %v", code, sub)
	}
	id := sub["id"].(string)
	return ts, hdr, id, fpAwait(t, ts.URL, id)
}

// fpStripMarkers drops the cache and ledger markers a hit adds to the
// stored release.
func fpStripMarkers(t *testing.T, res map[string]any) []byte {
	t.Helper()
	clean := make(map[string]any, len(res))
	for k, v := range res {
		if k == "cached" || k == "release" || k == "remaining" {
			continue
		}
		clean[k] = v
	}
	b, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFingerprintCachedFitRelease: a server fit with a release cache
// releases the pinned bits cold, serves byte-identical bits on the
// repeat question, and stores them on disk under the canonical key.
func TestFingerprintCachedFitRelease(t *testing.T) {
	cache, err := release.Open(filepath.Join(t.TempDir(), "rel"))
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _, cold := fpServeFit(t, server.Options{Workers: 4, MaxJobs: 2, Releases: cache})
	if _, ok := cold["cached"]; ok {
		t.Fatalf("cold fit carries a cached marker: %v", cold)
	}

	code, _, view := fpPostFit(t, ts.URL, fpFitBody(t))
	if code != http.StatusOK {
		t.Fatalf("cache hit: %d %v", code, view)
	}
	hit, ok := view["result"].(map[string]any)
	if !ok {
		t.Fatalf("cache hit view has no result: %v", view)
	}
	if hit["cached"] != true {
		t.Fatalf("hit result not marked cached: %v", hit)
	}
	if c, h := fpStripMarkers(t, cold), fpStripMarkers(t, hit); !bytes.Equal(c, h) {
		t.Errorf("hit differs from cold release:\ncold: %s\nhit:  %s", c, h)
	}

	fresh, err := release.Open(cache.Dir())
	if err != nil {
		t.Fatal(err)
	}
	g := fpGraphK10(t)
	key := release.KeyFor(accountant.DatasetID(g), 0.5, 0.01, 10, 9, core.PlannedReceipt(0.5, 0.01))
	e, ok := fresh.Get(key)
	if !ok {
		t.Fatal("release not on disk under the canonical key")
	}
	var stored map[string]any
	if err := json.Unmarshal(e.Payload, &stored); err != nil {
		t.Fatal(err)
	}
	if hit["release"] != e.Fingerprint {
		t.Errorf("hit release id %v != stored fingerprint %s", hit["release"], e.Fingerprint)
	}
	rows := jsonEstimateRows("POST /v1/fit/cold", func(*testing.T) map[string]any { return cold })
	rows = append(rows, jsonEstimateRows("POST /v1/fit/hit", func(*testing.T) map[string]any { return hit })...)
	checkPins(t, append(rows, jsonEstimateRows("release.Cache.Get", func(*testing.T) map[string]any { return stored })...))
}

// TestFingerprintCacheHitDrawsNoNoise: serving a memoized release is
// post-processing, so it releases the pinned bits and consumes no
// randomness from the caller's stream.
func TestFingerprintCacheHitDrawsNoNoise(t *testing.T) {
	g := fpGraphK10(t)
	cache, err := release.Open(filepath.Join(t.TempDir(), "rel"))
	if err != nil {
		t.Fatal(err)
	}
	key := release.KeyFor(accountant.DatasetID(g), 0.5, 0.01, 10, 9, core.PlannedReceipt(0.5, 0.01))
	coldRes := fpEstimate(t, liveRun(t, 4), g, accountant.New(nil).WithLimit(dp.Budget{Eps: 0.5, Delta: 0.01}))
	if _, err := cache.Put(key, server.PrivateFitResult(coldRes, accountant.DatasetID(g))); err != nil {
		t.Fatal(err)
	}

	rng := randx.New(9)
	checkPins(t, []fpRow{
		{"release.Cache.Get", pinEstimateInit, func(t *testing.T) uint64 {
			e, ok := cache.Get(key)
			if !ok {
				t.Fatal("memoized release missed")
			}
			var fr server.FitResult
			if err := json.Unmarshal(e.Payload, &fr); err != nil {
				t.Fatal(err)
			}
			return fpHashFloats(fr.Initiator.A, fr.Initiator.B, fr.Initiator.C)
		}},
		{"core.EstimateCtx/after-hit", pinEstimateInit, func(t *testing.T) uint64 {
			res := must(core.EstimateCtx(liveRun(t, 4), g, core.Options{Eps: 0.5, Delta: 0.01, Rng: rng}))
			return fpHashFloats(res.Init.A, res.Init.B, res.Init.C)
		}},
	})
}

// TestFingerprintInstrumentedServer: metrics and structured logging
// are observation only — the instrumented server releases the pinned
// bits and its registry exposes every metric family.
func TestFingerprintInstrumentedServer(t *testing.T) {
	logger, err := obs.NewLogger(io.Discard, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, hdr, _, result := fpServeFit(t, server.Options{
		Workers: 4, MaxJobs: 2, MaxQueue: 8,
		Metrics: reg, Logger: logger,
	})
	if hdr.Get("X-Request-ID") == "" {
		t.Error("fit response carries no X-Request-ID")
	}
	checkPins(t, jsonEstimateRows("POST /v1/fit/instrumented", func(*testing.T) map[string]any { return result }))

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	for _, fam := range []string{
		"dpkron_http_requests_total",
		"dpkron_http_request_seconds",
		"dpkron_jobs_submitted_total",
		"dpkron_jobs_completed_total",
		"dpkron_job_stage_seconds",
	} {
		if !strings.Contains(text, "# TYPE "+fam) {
			t.Errorf("the exposition is missing family %s", fam)
		}
	}
}

// TestFingerprintTracedServer: tracing is observation only — the
// server, which traces every job, releases the pinned bits through a
// fully instrumented stack, records one span per Algorithm 1 stage,
// and its audit events sum to the receipt.
func TestFingerprintTracedServer(t *testing.T) {
	logger, err := obs.NewLogger(io.Discard, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	ts, hdr, id, result := fpServeFit(t, server.Options{
		Workers: 4, MaxJobs: 2, MaxQueue: 8,
		Metrics: obs.NewRegistry(), Logger: logger,
	})
	if !strings.HasPrefix(hdr.Get("traceparent"), "00-") {
		t.Errorf("fit response carries no traceparent: %q", hdr.Get("traceparent"))
	}
	checkPins(t, jsonEstimateRows("POST /v1/fit/traced", func(*testing.T) map[string]any { return result }))
	receipt, ok := result["receipt"].(map[string]any)
	if !ok {
		t.Fatal("fit result carries no receipt")
	}
	total := receipt["total"].(map[string]any)
	charges, _ := receipt["charges"].([]any)

	tresp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", tresp.StatusCode)
	}
	var tree trace.Tree
	if err := json.NewDecoder(tresp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	stageCount := map[string]int{}
	var auditEps, auditDelta float64
	var auditEvents int
	tree.Walk(func(n *trace.Node, depth int) {
		if strings.HasPrefix(n.Name, "algorithm1/") {
			stageCount[n.Name]++
		}
		for _, e := range n.Events {
			if e.Name != "accountant-debit" {
				continue
			}
			auditEvents++
			eps, err1 := strconv.ParseFloat(e.Attrs["eps"], 64)
			del, err2 := strconv.ParseFloat(e.Attrs["delta"], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("audit event with unparsable budget: %v", e.Attrs)
			}
			auditEps += eps
			auditDelta += del
		}
	})
	for _, stage := range []string{
		"algorithm1/degree-release",
		"algorithm1/feature-derivation",
		"algorithm1/triangle-release",
		"algorithm1/moment-fit",
		"algorithm1/moment-fit/kronmom",
	} {
		if stageCount[stage] != 1 {
			t.Errorf("trace has %d spans for stage %q, want exactly 1", stageCount[stage], stage)
		}
	}
	if auditEvents != len(charges) {
		t.Errorf("trace has %d accountant-debit events, receipt itemizes %d charges", auditEvents, len(charges))
	}
	if math.Abs(auditEps-total["eps"].(float64)) > 1e-9 || math.Abs(auditDelta-total["delta"].(float64)) > 1e-9 {
		t.Errorf("audit events sum to (%g, %g); receipt total is (%v, %v)", auditEps, auditDelta, total["eps"], total["delta"])
	}
}

// must unwraps a (value, error) pair from a Run that is never
// cancelled, where an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
