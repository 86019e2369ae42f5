// Package bench is the dpkron benchmark: seeded workloads that drive the
// served private fit (Algorithm 1 behind admission, journal, ledger and
// release cache), the exact hop plot, and generate-to-store, measure them
// end to end, and split each into the layers it calls.
//
// A run measures one workload. An end-to-end run (Config.Trace false)
// measures what a user sees, with nothing added to the program. A traced
// run (Config.Trace true) calls each layer's public functions itself, in
// the order the program calls them, and times each call. The command in
// cmd/dpbench prints either set of metrics; see README.md for the
// workloads, the metrics and how to compare two commits.
package bench

// Metric describes one reported number.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the base median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	Bound float64
}

// EndToEnd lists the metrics of an end-to-end run. Every workload
// reports every one of them, so each is defined for any kind of
// operation: a served fit request, a hop-plot computation or a
// generate-to-store. Each is a measurement that is never zero.
//
// A bound must stay above the spread between runs of unchanged code, or
// unchanged code reads as a regression. On a shared 2-vCPU machine the
// machine's speed moves by 20–30% for minutes at a time, and the time
// metrics' quartile spread over ten runs reached 12–36%. The heap
// metric's reached 12% on fit-dense, whose 2.5 MiB live heap is read only
// when a collection runs. Every metric therefore gets 25%.
var EndToEnd = []Metric{
	// The median of the Setups set-ups made in a run, each from fresh
	// state: input generation, dataset import, server start.
	{"setup_s", "s", "lower", 0.25},
	// The median latency of the operations that compute their answer (a
	// fit the release cache cannot answer, a hop plot, a
	// generate-to-store), from the client's first byte to its answer; on
	// fit-hits, of its cache hits. Elsewhere hits are left out: among
	// fit-mixed's 60% hits the median of all requests falls in the hits'
	// tail, which swings with scheduling.
	{"p50_ms", "ms", "lower", 0.25},
	// Operations completed per second of the measured phase, cache hits
	// included.
	{"ops_per_s", "1/s", "higher", 0.25},
	// The largest live heap a garbage collection found while an operation
	// ran, median over the measured operations.
	{"op_peak_live_heap_mib", "MiB", "lower", 0.25},
}

// PerLayer lists the metrics of a traced run. Times are medians over
// the calls made; a layer the workload never calls reads 0.
var PerLayer = []Metric{
	{"core.workers", "count", "higher", 0},
	{"core.degree_release_ms", "ms", "lower", 0},
	{"core.feature_derivation_ms", "ms", "lower", 0},
	{"core.triangle_release_ms", "ms", "lower", 0},
	{"smoothsens.ls_scan_ms", "ms", "lower", 0},
	{"stats.triangles_ms", "ms", "lower", 0},
	{"core.moment_fit_ms", "ms", "lower", 0},
	{"accountant.ledger_spend_ms", "ms", "lower", 0},
	{"accountant.ledger_remaining_ms", "ms", "lower", 0},
	{"accountant.ledger_kib", "KiB", "lower", 0},
	{"journal.append_sync_ms", "ms", "lower", 0},
	{"journal.append_async_ms", "ms", "lower", 0},
	{"journal.appends_per_fit", "count", "lower", 0},
	{"release.get_ms", "ms", "lower", 0},
	{"release.put_ms", "ms", "lower", 0},
	{"release.hit_ratio", "ratio", "higher", 0},
	{"dataset.meta_ms", "ms", "lower", 0},
	{"dataset.load_ms", "ms", "lower", 0},
	{"server.fit_ms", "ms", "lower", 0},
	{"server.fit_tail_ms", "ms", "lower", 0},
	{"server.fit_layers_ms", "ms", "lower", 0},
	{"server.unattributed_fit_ms", "ms", "lower", 0},
	{"server.fit_attributed_ratio", "ratio", "higher", 0},
	{"server.hit_ms", "ms", "lower", 0},
	{"server.hit_tail_ms", "ms", "lower", 0},
	{"server.hit_layers_ms", "ms", "lower", 0},
	{"server.unattributed_hit_ms", "ms", "lower", 0},
	{"stats.features_ms", "ms", "lower", 0},
	{"stats.hopplot_ms", "ms", "lower", 0},
	{"anf.hopplot_ms", "ms", "lower", 0},
	{"anf.max_rel_error", "ratio", "lower", 0},
	{"skg.sample_ms", "ms", "lower", 0},
	{"dataset.put_ms", "ms", "lower", 0},
	{"skg.stream_sample_ms", "ms", "lower", 0},
	{"dataset.put_stream_ms", "ms", "lower", 0},
	{"runtime.alloc_mib_per_op", "MiB", "lower", 0},
}

// Value is one reported number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one run, in the shape the command prints as
// its last line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}
