package dpkron

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/anf"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/graph"
	"dpkron/internal/journal"
	"dpkron/internal/kronfit"
	"dpkron/internal/kronmom"
	"dpkron/internal/linalg"
	"dpkron/internal/obs"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/release"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
	"dpkron/internal/trace"
)

// Re-exported types forming the supported public API. The concrete
// implementations live in internal packages; the aliases keep a single
// import path for users while allowing the internals to be reorganized.
type (
	// Graph is an immutable undirected simple graph in CSR form.
	Graph = graph.Graph
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// Rand is the deterministic random source used across the module.
	Rand = randx.Rand
	// Initiator is the symmetric 2×2 SKG initiator matrix [a b; b c].
	Initiator = skg.Initiator
	// Model is an SKG on 2^K nodes defined by Initiator^[K].
	Model = skg.Model
	// Features holds the four matching statistics (E, H, T, Δ).
	Features = stats.Features
	// Budget is an (ε, δ) differential privacy guarantee.
	Budget = dp.Budget
	// Accountant records mechanism charges, composes them
	// sequentially, and can refuse charges beyond a limit.
	Accountant = accountant.Accountant
	// Charge is one recorded mechanism invocation (query, mechanism,
	// calibration, price).
	Charge = accountant.Charge
	// Receipt is the machine-readable spend record of a release:
	// itemized charges plus the composed total.
	Receipt = accountant.Receipt
	// Ledger is a persistent per-dataset privacy-budget store that
	// refuses spends once a dataset's configured budget is exhausted.
	Ledger = accountant.Ledger
	// LedgerAccount is one dataset's ledger entry (budget, spend,
	// receipts).
	LedgerAccount = accountant.Account
	// DatasetStore is a persistent, content-addressed graph store:
	// graphs are imported once (from SNAP text, gzip streams, Matrix
	// Market files or the binary codec) and later loaded by the same
	// dataset id the privacy ledger charges.
	DatasetStore = dataset.Store
	// DatasetMeta is one stored dataset's metadata (id, name, size,
	// source format, import time).
	DatasetMeta = dataset.Meta
	// ReleaseCache is a persistent content-addressed cache of released
	// private fits: once a question (dataset, ε, δ, K, seed, mechanism
	// schedule) has been answered, re-serving the stored release is
	// pure post-processing and costs zero privacy budget.
	ReleaseCache = release.Cache
	// ReleaseKey canonically identifies one private-fit question; its
	// Fingerprint is the cache's content address.
	ReleaseKey = release.Key
	// ReleaseEntry is one cached release: fingerprint, key, integrity
	// checksum and the stored result payload.
	ReleaseEntry = release.Entry
	// Journal is an append-only checksummed log of server job
	// transitions: the admission record (request, planned receipt,
	// idempotency token) is fsynced before the ledger is debited, so a
	// restart can resume an interrupted fit without a second debit.
	Journal = journal.Journal
	// JournalRecord is one decoded journal frame (job id, transition,
	// payload).
	JournalRecord = journal.Record
	// JournalJobState is one job's state folded from its journal
	// records; see JournalReduce.
	JournalJobState = journal.JobState
	// PrivateOptions configures the paper's Algorithm 1.
	PrivateOptions = core.Options
	// PrivateResult is the (ε, δ)-DP estimation outcome.
	PrivateResult = core.Result
	// MomentOptions configures the Gleich–Owen KronMom estimator.
	MomentOptions = kronmom.Options
	// MomentEstimate is a KronMom fit.
	MomentEstimate = kronmom.Estimate
	// MLEOptions configures the Leskovec–Faloutsos KronFit estimator.
	MLEOptions = kronfit.Options
	// MLEResult is a KronFit fit.
	MLEResult = kronfit.Result
	// DegreePoint is one point of a per-degree aggregated series.
	DegreePoint = stats.DegreePoint
	// Run is the pipeline execution context every long-running entry
	// point takes: a context.Context for cancellation/deadline, a
	// worker budget, and an optional progress sink. A nil *Run behaves
	// as a background run on all cores.
	Run = pipeline.Run
	// ProgressEvent is one stage/progress notification: a stage path
	// and the completed fraction (0 start, 1 done).
	ProgressEvent = pipeline.Event
	// ProgressSink receives pipeline progress events; calls are
	// serialized by the Run.
	ProgressSink = pipeline.Sink
	// MetricsRegistry holds named counters, gauges and histograms and
	// renders them in the Prometheus text exposition format. Hand one
	// to server.Options.Metrics to instrument the whole serving tier;
	// a nil registry makes every metric operation a no-op.
	MetricsRegistry = obs.Registry
	// Tracer records one trace: a tree of timed spans with attributes
	// and point events. Every method on a nil *Tracer (and on the nil
	// *TraceSpan it hands out) is a no-op, so tracing can be threaded
	// unconditionally and enabled by construction.
	Tracer = trace.Tracer
	// TraceSpan is one timed operation in a Tracer's tree; audit
	// events (ε/δ debits) attach here.
	TraceSpan = trace.Span
	// TraceTree is a Tracer's exportable snapshot — the JSON shape
	// GET /v1/jobs/{id}/trace serves and WriteChromeTrace consumes.
	TraceTree = trace.Tree
	// TraceContext is a W3C Trace Context identity (trace id, span
	// id, flags) as parsed from / rendered to a traceparent header.
	TraceContext = trace.Context
)

// NewRand returns a deterministic random source for the given seed.
func NewRand(seed uint64) *Rand { return randx.New(seed) }

// NewMetricsRegistry returns an empty metrics registry. Register it
// with a server (server.Options.Metrics) or instrument components
// directly; MetricsHandler serves its current state.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsHandler returns an http.Handler rendering reg in the
// Prometheus text exposition format (version 0.0.4) — mount it at
// GET /metrics on an operator listener; the server's request handler
// never serves it. A nil registry serves an empty exposition.
func MetricsHandler(reg *MetricsRegistry) http.Handler { return reg.Handler() }

// NewTracer returns a tracer for one traced operation. Pass the
// TraceContext parsed from an incoming traceparent header to join the
// caller's trace (ParseTraceparent), or the zero TraceContext to
// start a fresh one with a random trace id.
func NewTracer(ctx TraceContext) *Tracer { return trace.New(ctx) }

// ParseTraceparent parses a W3C traceparent header value. ok reports
// whether it was well-formed; the parser never panics on hostile
// input.
func ParseTraceparent(h string) (TraceContext, bool) { return trace.ParseTraceparent(h) }

// WriteChromeTrace writes tr in the Chrome trace-event JSON format
// loadable by chrome://tracing and ui.perfetto.dev — the same export
// GET /v1/jobs/{id}/trace?format=chrome serves.
func WriteChromeTrace(w io.Writer, tr *TraceTree) error { return trace.WriteChrome(w, tr) }

// NewStructuredLogger returns a *slog.Logger writing one record per
// line to w. Format is "text" or "json"; level is "debug", "info",
// "warn" or "error". The serving tier (server.Options.Logger) emits
// request- and job-correlated records through it.
func NewStructuredLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	return obs.NewLogger(w, format, level)
}

// NewAccountant returns an unlimited sequential-composition
// accountant; cap it with WithLimit to enforce a budget. Pass it via
// PrivateOptions.Accountant to meter one or many estimation runs.
func NewAccountant() *Accountant { return accountant.New(nil) }

// OpenLedger loads (or initializes) the persistent privacy-budget
// ledger at path. Budgets are per dataset; see DatasetID.
func OpenLedger(path string) (*Ledger, error) { return accountant.Open(path) }

// DatasetID returns the stable content-addressed ledger id of g: two
// byte-identical graphs map to the same id in every process, so spend
// accrues across fits and restarts.
func DatasetID(g *Graph) string { return accountant.DatasetID(g) }

// PlannedReceipt returns the exact receipt EstimatePrivate will
// produce for a total budget (eps, delta), without touching any data:
// Algorithm 1's charge schedule is data-independent, so a ledger can
// be debited before the run is admitted.
func PlannedReceipt(eps, delta float64) Receipt { return core.PlannedReceipt(eps, delta) }

// OpenReleaseCache opens (or initializes) the persistent release cache
// rooted at dir. Entries are integrity-checked on every read; damaged
// files are reported as misses (and evicted), never served. See
// ExampleOpenReleaseCache.
func OpenReleaseCache(dir string) (*ReleaseCache, error) { return release.Open(dir) }

// OpenJournal opens (or creates) the durable job journal at path,
// recovering a torn tail from a mid-write crash and taking an exclusive
// lock on the file. A server given the journal (server.Options.Journal)
// replays it on startup and resumes interrupted fits; interior
// corruption surfaces as ErrJournalCorrupt, a live lock holder as
// ErrJournalLocked.
func OpenJournal(path string) (*Journal, error) { return journal.Open(path) }

// JournalDecode decodes every whole record in data, returning the
// records, the byte length of the valid prefix, and ErrJournalCorrupt
// if a damaged record interrupts the log (a torn final record is not an
// error: decoding simply stops at the last whole frame).
func JournalDecode(data []byte) ([]JournalRecord, int64, error) { return journal.Decode(data) }

// JournalReduce folds decoded records into per-job states, in first-seen
// order — the same reduction the server replays on startup.
func JournalReduce(recs []JournalRecord) []*JournalJobState { return journal.Reduce(recs) }

// Journal error conditions, re-exported for errors.Is checks.
var (
	// ErrJournalCorrupt reports a damaged interior record: bytes after
	// it cannot be trusted, so the journal refuses to open.
	ErrJournalCorrupt = journal.ErrCorrupt
	// ErrJournalLocked reports a live process already holding the
	// journal's exclusive lock.
	ErrJournalLocked = journal.ErrLocked
)

// ReleaseKeyFor builds the canonical cache key of the private-fit
// question (datasetID, eps, delta, k, seed). The mechanism schedule is
// derived from PlannedReceipt, so the key — like the ledger debit — is
// fixed before any data is touched.
func ReleaseKeyFor(datasetID string, eps, delta float64, k int, seed uint64) ReleaseKey {
	return release.KeyFor(datasetID, eps, delta, k, seed, core.PlannedReceipt(eps, delta))
}

// OpenStore opens (or initializes) the persistent dataset store rooted
// at dir. Stored graphs load bit-identically to parsing their original
// edge lists, so fixed-seed fits of a stored dataset reproduce fits of
// the source file exactly. See ExampleOpenStore.
func OpenStore(dir string) (*DatasetStore, error) { return dataset.Open(dir) }

// ImportDataset streams a graph from r into the store under its
// content-addressed id: SNAP edge-list text, gzipped streams (sniffed
// by magic), Matrix Market coordinate files and the store's own binary
// format are all accepted, and none of them materializes an
// intermediate edge slice. Importing bytes whose graph is already
// stored is an idempotent no-op returning the existing metadata.
func ImportDataset(s *DatasetStore, r io.Reader, name string) (DatasetMeta, error) {
	return s.ImportReader(r, name, dataset.DecodeOptions{})
}

// NewRun returns a pipeline Run over ctx (nil means background) with
// the given worker budget (<= 0 selects all cores) and optional
// progress sink. Pass the Run to the long-running entry points;
// cancelling ctx makes them return promptly with ctx's error, and a Run
// that is never cancelled produces the same results as a nil Run for
// the same seed.
func NewRun(ctx context.Context, workers int, sink ProgressSink) *Run {
	return pipeline.New(ctx, workers, sink)
}

// NewRunTimeout is NewRun with a deadline d (<= 0 means none) attached
// to ctx; the returned cancel function must be called to release the
// deadline's resources.
func NewRunTimeout(ctx context.Context, d time.Duration, workers int, sink ProgressSink) (*Run, context.CancelFunc) {
	return pipeline.WithTimeout(ctx, d, workers, sink)
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n nodes; loops are dropped and duplicate
// edges merged.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// ReadEdgeList parses the SNAP edge-list text format ('#' comments, one
// whitespace-separated pair per line).
func ReadEdgeList(r io.Reader, minNodes int) (*Graph, error) {
	return graph.ReadEdgeList(r, minNodes)
}

// NewModel validates an initiator and Kronecker power K and returns the
// SKG model on 2^K nodes.
func NewModel(init Initiator, k int) (Model, error) { return skg.NewModel(init, k) }

// Every long-running entry point below takes a *Run as its first
// argument: pass nil for a background run on all cores, or a NewRun to
// bound workers, attach a deadline or cancellation, or receive progress
// events. Cancellation aborts with the context's error, never a
// perturbed result, and for a fixed seed the outputs are identical for
// every worker budget.

// EstimatePrivate runs the paper's Algorithm 1: an (ε, δ)-edge-
// differentially-private estimate of the SKG initiator of g. The run's
// context is checked between and inside the algorithm stages, and one
// progress event pair per stage is emitted to the run's sink under the
// "algorithm1/" prefix.
func EstimatePrivate(run *Run, g *Graph, opts PrivateOptions) (*PrivateResult, error) {
	return core.EstimateCtx(run, g, opts)
}

// FitMoment runs the non-private Gleich–Owen KronMom estimator on the
// exact features of g ("KronMom" in the paper's Table 1). k <= 0 infers
// the smallest adequate Kronecker power.
func FitMoment(run *Run, g *Graph, k int, opts MomentOptions) (MomentEstimate, error) {
	return kronmom.FitGraphCtx(run, g, k, opts)
}

// FitMomentFeatures runs KronMom directly on a feature vector, which is
// how Algorithm 1 consumes its private features.
func FitMomentFeatures(run *Run, f Features, k int, opts MomentOptions) (MomentEstimate, error) {
	return kronmom.FitCtx(run, f, k, opts)
}

// FitMLE runs the non-private KronFit approximate maximum-likelihood
// estimator ("KronFit" in the paper's Table 1). Cancellation is checked
// once per gradient iteration and the "kronfit" stage reports an
// incremental progress fraction.
func FitMLE(run *Run, g *Graph, opts MLEOptions) (MLEResult, error) {
	return kronfit.FitCtx(run, g, opts)
}

// FeaturesOf computes the exact matching features (edges, hairpins,
// tripins, triangles) of g.
func FeaturesOf(run *Run, g *Graph) (Features, error) {
	return stats.FeaturesOfCtx(run, g)
}

// Triangles returns the exact triangle count of g.
func Triangles(run *Run, g *Graph) (int64, error) { return stats.TrianglesCtx(run, g) }

// HopPlot returns the exact cumulative hop plot of g (ordered pairs,
// including self-pairs, within h hops) by all-source BFS.
func HopPlot(run *Run, g *Graph) ([]int64, error) {
	return stats.HopPlotCtx(run, g)
}

// ApproxHopPlot estimates the hop plot with ANF sketches; trials
// controls accuracy (32 is typical).
func ApproxHopPlot(run *Run, g *Graph, trials int, rng *Rand) ([]float64, error) {
	return anf.HopPlotCtx(run, g, anf.Options{Trials: trials, Rng: rng})
}

// DegreeDistribution returns (degree, node count) pairs sorted by degree.
func DegreeDistribution(g *Graph) []DegreePoint { return stats.DegreeDistribution(g) }

// ClusteringByDegree returns the average local clustering coefficient
// per node degree.
func ClusteringByDegree(run *Run, g *Graph) ([]DegreePoint, error) {
	return stats.ClusteringByDegreeCtx(run, g)
}

// ScreeValues returns the top-k singular values of the adjacency matrix,
// descending (the paper's scree plot series).
func ScreeValues(run *Run, g *Graph, k int, rng *Rand) ([]float64, error) {
	return linalg.ScreeValuesCtx(run, g, k, rng)
}

// NetworkValues returns the sorted absolute components of the principal
// eigenvector (the paper's network-value series).
func NetworkValues(run *Run, g *Graph, rng *Rand) ([]float64, error) {
	return linalg.NetworkValuesCtx(run, g, rng)
}
