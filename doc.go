// Package dpkron is a from-scratch Go implementation of the
// differentially private stochastic Kronecker graph (SKG) estimator of
// Mir and Wright ("A Differentially Private Estimator for the Stochastic
// Kronecker Graph Model", PAIS 2012), together with every substrate the
// paper builds on: the SKG model with exact and fast samplers, the
// Gleich–Owen KronMom moment estimator, the Leskovec–Faloutsos KronFit
// approximate MLE, Hay et al.'s private degree sequences, Nissim et
// al.'s smooth-sensitivity triangle counts, and the graph-statistics
// toolkit (hop plots, spectra, clustering) used in the paper's
// evaluation.
//
// # Quick start
//
//	g, _ := dpkron.ReadEdgeList(f, 0)
//	res, _ := dpkron.EstimatePrivate(nil, g, dpkron.PrivateOptions{
//		Eps: 0.2, Delta: 0.01, Rng: dpkron.NewRand(1),
//	})
//	fmt.Println("private initiator:", res.Init) // safe to publish
//	synth, _ := res.Model().SampleCtx(nil, dpkron.NewRand(2)) // synthetic graph
//
// The first argument of every long-running call is a *Run; nil runs it
// in the background on all cores (see Cancellation below).
//
// The released Result carries the private initiator Θ̃, the private
// feature counts, the noisy degree sequence and a per-mechanism privacy
// accounting (Result.Receipt); everything except Result.Triangles.Exact
// is safe to publish under the composed (ε, δ) guarantee.
//
// # Privacy budgeting
//
// The per-release guarantee composes across releases: fitting the same
// graph twice spends twice. A persistent Ledger (OpenLedger) bounds the
// cumulative spend per dataset — give a dataset a total (ε, δ)
// allowance, debit each fit's PlannedReceipt before running it, and the
// ledger refuses the debit once the allowance cannot cover it. See
// ExampleOpenLedger, and the Accountant type for in-process metering
// under sequential composition.
//
// # Dataset store
//
// The register-once, query-many workflow the budgeting story implies
// has a home: a persistent, content-addressed DatasetStore (OpenStore,
// ImportDataset). A sensitive graph is imported a single time — from
// SNAP text, a gzipped stream, or a Matrix Market file, streamed
// straight into the graph builder — and stored in a checksummed binary
// CSR format whose load is bit-identical to parsing the original edge
// list and considerably faster. Every later interaction is by the
// dataset's id, which doubles as its ledger account: `dpkron fit -store
// DIR -in ds-...` on the command line, "dataset_id" in server private
// fit requests. See ExampleOpenStore.
//
// # Release cache
//
// Differential privacy is closed under post-processing: once a release
// has been published, re-serving those exact bytes reveals nothing
// further, so only *distinct* questions should cost budget. A
// persistent ReleaseCache (OpenReleaseCache) memoizes each private fit
// under a canonical fingerprint of its question — dataset id, (ε, δ),
// Kronecker power, seed and the planned mechanism schedule — and
// answers repeats from storage with the original receipt, at zero
// budget and zero noise draws. Entries are checksummed; a damaged file
// is evicted and recomputed, never served. The server coalesces
// concurrent identical fits through a single-flight group (one job
// runs, everyone gets its result, the ledger is debited once), and the
// CLI takes the same directory via `fit -release-cache` and manages it
// with `dpkron cache list|info|rm`. See ExampleOpenReleaseCache.
// `dpkron fit` and `dpkron generate` run the server's fit and generate
// bodies in-process, so a release either the CLI or the server writes
// is the other's cache hit, and both draw the same graph for the same
// request.
//
// The experiment harness that regenerates the paper's Table 1 and
// Figures 1–4 lives in cmd/dpkron and the repository-root benchmarks.
//
// # Parallelism
//
// The hot paths — sampling, feature counting, the sensitivity scan and
// the estimators — shard across a bounded worker pool
// (internal/parallel). Sharding is deterministic: for a fixed seed,
// every result is bit-identical for every worker count, so seeded
// experiments stay exactly reproducible while using all cores. The
// worker bound comes from the *Run each call takes (NewRun's workers
// argument; <= 0 and a nil Run mean runtime.GOMAXPROCS(0)). See
// README.md for the paper-to-code map and the engine's design rules.
//
// # Cancellation, deadlines and progress
//
// Every long-running entry point has exactly one form, taking a *Run
// (NewRun / NewRunTimeout, or nil for a background run on all cores): a
// context.Context for cancellation and deadlines, a worker budget, and
// an optional ProgressSink receiving one event pair per pipeline
// stage. Cancellation only ever aborts — a cancelled Run makes the call
// return the context's error, never a perturbed result — and a Run
// that completes produces the same bits as a nil Run for the same
// seed. The `dpkron serve`
// command (internal/server) exposes the same pipeline as an HTTP/JSON
// job API with polling, stage progress, and cancellation.
//
// # Durability and crash recovery
//
// A crash between a ledger debit and the served release would strand
// spent budget. The server's job journal (internal/journal) closes
// that window: the server appends every job transition to an
// append-only checksummed log — the admission record is fsynced, with the request and an
// idempotency token, before the ledger is touched — and on restart
// replays it, restoring finished jobs as pollable history and
// resuming interrupted private fits without a second debit
// (deterministic re-execution from the recorded seed lands the
// byte-identical release). The invariant: every debit is matched by a
// served release or an explicit journaled failure, never silence. A
// torn tail from a mid-write crash truncates to the last whole
// record; interior corruption is a typed error and the journal
// refuses to open.
// `dpkron serve -journal FILE` wires it up, and SIGTERM drains
// gracefully: admission refused with Retry-After, running jobs
// finished or cancelled into the journal, exit 0.
//
// # Out-of-core scale
//
// The dataset store writes every graph in one binary layout, the
// mmap-friendly DPKG v2 — fixed-width aligned CSR arrays behind a
// self-checksummed header — which a store Load opens in O(1) by mapping
// the file and serving the adjacency straight out of the page cache
// (internal/mmapfile; platforms without mmap decode the same bytes onto
// the heap). Graphs older binaries stored in the compact varint DPKG v1
// still load, through a full decode.
// Generation scales the same way: `dpkron generate -store` and the
// server's generate jobs with "store" stream sampled edges
// through a bounded-memory external sort-and-dedup (internal/extsort)
// into a one-pass v2 encoder, so peak residency is O(nodes), not
// O(edges). The streamed sampler consumes the same random streams as
// the in-memory one — for a fixed seed the stored dataset is
// bit-identical either way, down to its content-addressed id.
//
// # Observability
//
// The serving tier is fully instrumented, with zero dependencies
// (internal/obs): a metrics registry of atomic counters, gauges and
// histograms rendered in the Prometheus text exposition format, and
// structured request/job logging via log/slog. `dpkron serve`
// instruments every layer — HTTP routes (latency, status, in-flight),
// the job queue (submissions, per-stage wall clock, queue/running
// gauges), the privacy ledger (debits, refusals,
// remaining budget per dataset), the release cache, the journal's
// fsync latency, and the dataset store's load routes; each job's
// `job finished` log record carries its stage seconds. Every request
// carries an X-Request-ID (echoed or generated) that threads through
// the access and admission logs; refused admissions (budget, queue,
// body cap, drain) are counted by reason and warn-logged, never
// silent. Observation never perturbs the observed: a nil registry and
// logger are true no-ops, and fixed-seed releases are bit-identical
// with or without instrumentation. The exposition is operator-only —
// its gauges reveal dataset sizes and every account's spend — so the
// server's request handler never serves it: `dpkron serve
// -metrics-addr` serves GET /metrics and net/http/pprof on a listener
// of their own, and without that flag serve builds no registry. Other
// `dpkron serve` flags: -log-format, -log-level; GET /readyz reports
// drain state for load balancers, distinct from /healthz liveness.
//
// # Tracing and privacy audit
//
// On top of metrics and logs sits a dependency-free span tracer
// (internal/trace): each server job records a tree of timed spans —
// admission, journal append, ledger debit, release-cache lookup,
// dataset load, queue wait, and one span per algorithm1/* pipeline
// stage — and every privacy-budget debit or refusal lands on the tree
// as an event carrying the mechanism name, the (ε, δ) charged and the
// budget remaining, cross-referenced to the journaled receipt by its
// idempotency token. A job's trace therefore doubles as its
// privacy-audit timeline. The server joins W3C Trace Context: a valid
// incoming traceparent header is adopted and echoed, so the job's
// trace id is the caller's. Every job the server admits is traced;
// the trace lives on the job, is evicted with the job's history, and
// its stage spans are the job's only stage record (the job view's
// stage seconds, the stage histogram and the `job finished` log record
// read them; a CLI command's -progress lines print an in-process stage
// record of the same kind). Traces are exported three ways: GET
// /v1/jobs/{id}/trace (the span-tree JSON), ?format=chrome (the Chrome
// trace-event format, loadable in chrome://tracing and
// ui.perfetto.dev), and `dpkron job trace` (an ASCII waterfall). `dpkron audit <dataset>` needs no server: it
// replays the ledger's time-stamped receipts against the journal into
// a chronological spend report naming the job and request that paid.
// The observability discipline is unchanged: a nil tracer or span
// no-ops everywhere, and traced runs release bit-identical results.
package dpkron
