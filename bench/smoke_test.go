package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smallSizes keeps every graph at K <= 10 so all workloads run in
// seconds.
func smallSizes() Sizes {
	return Sizes{
		DenseK: 10, DenseEdges: 1 << 13, DenseFits: 3,
		MixedK: 10, MixedRequests: 8, Questions: 4, HitQuestions: 2, PriorReceipts: 10, History: 8,
		StatsK: 9, StatsReps: 2,
		GenK: 10, GenEdges: 1 << 12, GenReps: 2,
		WarmK: 8, WarmEdges: 1 << 9,
		Setups: 2,
	}
}

// calledLayers lists, per workload, the per-layer metrics a traced run
// must measure as non-zero.
var calledLayers = map[string][]string{
	"fit-dense": {"core.workers", "core.degree_release_ms", "core.triangle_release_ms",
		"smoothsens.ls_scan_ms", "stats.triangles_ms", "core.moment_fit_ms",
		"accountant.ledger_spend_ms", "accountant.ledger_kib", "journal.append_sync_ms",
		"journal.appends_per_fit", "release.get_ms", "release.put_ms", "dataset.load_ms",
		"server.fit_ms", "server.fit_layers_ms", "server.unattributed_fit_ms",
		"server.fit_attributed_ratio", "runtime.alloc_mib_per_op"},
	"fit-mixed": {"core.triangle_release_ms", "accountant.ledger_spend_ms", "release.hit_ratio",
		"server.fit_ms", "server.hit_ms", "server.hit_layers_ms", "server.unattributed_hit_ms"},
	"fit-hits": {"dataset.meta_ms", "release.get_ms", "release.hit_ratio", "journal.append_async_ms",
		"server.hit_ms", "server.hit_layers_ms", "server.unattributed_hit_ms", "runtime.alloc_mib_per_op"},
	"stats-hopplot":  {"stats.features_ms", "stats.hopplot_ms", "anf.hopplot_ms", "anf.max_rel_error", "runtime.alloc_mib_per_op"},
	"generate-store": {"skg.sample_ms", "dataset.put_ms", "skg.stream_sample_ms", "dataset.put_stream_ms", "runtime.alloc_mib_per_op"},
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res, details, err := Run(Config{
				Workload: w, Seed: 5, Seconds: 150 * time.Millisecond, Trace: traced,
				Sizes: smallSizes(), Dir: t.TempDir(), Log: &log,
			})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s (trace %v): %+v\n%s", w, traced, res, log.String())
			}
			want := EndToEnd
			if traced {
				want = PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s = %+v", w, traced, m.Name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, v.Value)
				}
			}
			if traced {
				for _, name := range calledLayers[w] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: layer metric %s = %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
			}
			if len(details) == 0 {
				t.Errorf("%s (trace %v): no breakdown lines", w, traced)
			}
		}
	}
}

// TestHopPlotSameAcrossRuns: two runs on one seed compute the same hop
// plot.
func TestHopPlotSameAcrossRuns(t *testing.T) {
	var plots []string
	for i := 0; i < 2; i++ {
		_, details, err := Run(Config{Workload: "stats-hopplot", Seed: 9, Seconds: time.Millisecond, Sizes: smallSizes(), Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range details {
			if strings.HasPrefix(d, "hop plot:") {
				plots = append(plots, d)
			}
		}
	}
	if len(plots) != 2 || plots[0] != plots[1] {
		t.Errorf("hop plots of two runs: %q", plots)
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	if _, _, err := Run(Config{Workload: "nope", Sizes: smallSizes()}); err == nil {
		t.Error("Run accepted an unknown workload")
	}
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json
// and this package's workload and metric tables the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the table %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for _, set := range []struct {
		json  []metric
		table []Metric
	}{{spec.EndToEnd, EndToEnd}, {spec.PerLayer, PerLayer}} {
		if len(set.json) != len(set.table) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the table %d", len(set.json), len(set.table))
		}
		for i, m := range set.json {
			if want := set.table[i]; m != (metric{want.Name, want.Unit, want.Better, want.Bound}) {
				t.Errorf("metric %d: BENCHMARK.json %+v, table %+v", i, m, want)
			}
		}
	}
}
