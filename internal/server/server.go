// Package server exposes the estimation pipeline as an HTTP/JSON job
// API — the service surface the ROADMAP's production goal needs. Fits
// and synthetic-graph generations are submitted as asynchronous jobs,
// polled for stage progress (fed by the pipeline event sink threaded
// through core/kronfit/kronmom/skg), and cancelled through the same
// context plumbing that every long-running layer checks.
//
// Endpoints:
//
//	POST   /v1/fit              submit an estimation job (private | mom | mle;
//	                            a stored dataset_id: private only)
//	POST   /v1/generate         submit a synthetic-graph sampling job
//	GET    /v1/jobs             list all jobs (newest last)
//	GET    /v1/jobs/{id}        one job with stage progress and result
//	GET    /v1/jobs/{id}/trace  the job's span tree (?format=chrome for
//	                            a Chrome/Perfetto trace-event file)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/budget/{dataset} a dataset's ledger account (ledger mode)
//	POST   /v1/datasets         import a graph into the dataset store
//	GET    /v1/datasets[/{id}]  list stored datasets / one's public view
//	DELETE /v1/datasets/{id}    remove a stored dataset
//	GET    /v1/releases[/{id}]  list cached releases / one with payload
//	GET    /healthz             liveness probe
//
// With Options.Datasets configured, private fit requests may name a
// stored dataset id ("dataset_id") instead of shipping an inline edge
// list — the register-once, query-many workflow: the graph is uploaded
// a single time (streamed, gzip-transparent, exempt from the inline
// body cap) and every subsequent fit references it by its content
// fingerprint, which is also the id the privacy ledger charges. Stored
// data leaves the server only as a private fit: a mom or mle fit by id
// is refused with 400 before any store access, and every response that
// describes a dataset carries only its public fields (DatasetView) —
// never the edge count or the file size.
//
// When Options.Ledger is set, private fits are additionally charged
// against a persistent per-dataset privacy-budget ledger: the request's
// dataset id (or the graph's content fingerprint) is debited the full
// requested (ε, δ) at admission, exhausted budgets are rejected with
// 429 plus the remaining budget, and finished fit results carry the
// itemized spend receipt.
//
// With Options.Releases configured, private fits are memoized in a
// persistent release cache keyed by the question's content fingerprint
// (dataset bytes, ε, δ, composition policy, mechanism config, seed).
// Post-processing is free under differential privacy, so a repeated
// question is answered 200 from the cache — the stored release with
// its original receipt plus a "cached": true marker — at zero ledger
// debit, zero noise draws, and zero job slots. Admission is
// cache-aware: only a genuine miss enters the ledger-debit critical
// section, and concurrent identical submissions coalesce through a
// single-flight group so exactly one job runs (and exactly one debit
// lands) no matter how many clients ask at once; the coalesced
// requests all receive that one job, hence the same receipt-bearing
// result. Cancelling a coalesced job cancels it for every waiter.
//
// Concurrency model: the process-wide worker budget is split evenly
// across the MaxJobs job slots, so a fully loaded server never runs
// more goroutines than the budget allows; jobs beyond MaxJobs queue
// (bounded by MaxQueue, further submissions get 429). Every job runs
// under its own context derived from the server's, so Close cancels
// everything in flight.
//
// Every admitted job is traced: W3C traceparent adopted from the
// request, spans for admission, journal appends, the ledger debit,
// dataset load, queueing and every pipeline stage, plus a
// privacy-audit event per accountant debit or refusal. The job holds
// its tracer, so GET /v1/jobs/{id}/trace serves it for as long as the
// job is retained and it is evicted with the job's history. The stage
// spans are the job's one stage record: GET /v1/jobs/{id} stage
// seconds and the dpkron_job_stage_seconds histogram are read from
// them. Tracing never moves a released bit: trace ids never touch the
// seeded streams.
//
// With Options.Journal configured, the server is crash-safe: every
// job transition is appended to a durable, checksummed journal — the
// admission record (fsynced before the ledger debit) carries the
// request, planned receipt, release key and an idempotency token, and
// the terminal record is fsynced before eviction may forget the job.
// New replays the journal on startup, restoring terminal jobs as
// pollable history and resuming interrupted fits without a second
// debit (cache-first, then SpendToken under the journaled token,
// then deterministic re-execution from the recorded seed). The
// serving invariant: every debit is eventually matched by a served
// release or an explicit journaled failure — never silence.
// StartDrain and Drain implement graceful shutdown: admission is
// refused with 503 + Retry-After (budget and queue refusals carry
// Retry-After too) while reads and cache hits stay available, running
// jobs get the drain deadline to finish, and stragglers are cancelled
// so their terminal states reach the journal before Drain returns.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"

	"dpkron/internal/accountant"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/journal"
	"dpkron/internal/obs"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/release"
	"dpkron/internal/trace"
)

// Options configures a Server.
type Options struct {
	// Workers is the total worker budget split across concurrent jobs;
	// <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// MaxJobs bounds concurrently *running* jobs (default 2).
	MaxJobs int
	// MaxQueue bounds jobs admitted but not yet finished — running plus
	// queued (default 32). Submissions beyond it are rejected with 429.
	MaxQueue int
	// MaxHistory bounds retained *finished* jobs (default 256): once
	// exceeded, the oldest terminal jobs are evicted so a long-running
	// server's memory stays bounded. Every admitted job is traced and
	// its span tree is evicted with it. Queued and running jobs are
	// never evicted.
	MaxHistory int
	// EventLog, when set, receives every job's pipeline events as they
	// arrive (serialized per job). Used by `dpkron serve -progress`.
	// The job's own stage record is its stage spans, whether or not
	// EventLog is set.
	EventLog func(jobID string, e pipeline.Event)
	// Ledger, when set, turns on per-dataset privacy-budget
	// enforcement: every private fit is debited against its dataset's
	// account at admission time (the full requested (ε, δ), known
	// upfront because Algorithm 1's charge schedule is
	// data-independent), and a request whose dataset lacks the
	// remaining budget is rejected with 429 and a remaining-budget
	// body. The debit is conservative — cancelled or failed jobs do
	// not refund, since their mechanisms may already have drawn noise.
	Ledger *accountant.Ledger
	// Datasets, when set, enables the dataset endpoints and private
	// fits by dataset id: graphs are imported once into the persistent
	// store and later requests reference them by content-addressed id.
	Datasets *dataset.Store
	// MaxUploadBytes bounds POST /v1/datasets bodies (default 1 GiB);
	// inline JSON job bodies keep their own 64 MiB cap.
	MaxUploadBytes int64
	// Releases, when set, memoizes private fit results in a persistent
	// release cache and coalesces concurrent identical fits into one
	// job: a repeated question is served from the cache at zero budget
	// and zero compute (see the package comment).
	Releases *release.Cache
	// Journal, when set, makes serving crash-safe: every job's state
	// transitions are append-logged (with the request payload, dataset,
	// planned receipt and release key at admission), New replays the log
	// — journaled terminal jobs answer GET /v1/jobs/{id} across
	// restarts, and an unfinished fit is resumed without a second
	// ledger debit (the idempotent spend token re-issues the charge at
	// most once). The caller owns the journal's lifecycle and must keep
	// it open until after Close/Drain returns.
	Journal *journal.Journal
	// Metrics, when set, instruments the whole serving tier on the
	// registry — HTTP middleware, the job manager, and every configured
	// subsystem (ledger, dataset store, release cache, journal) — and
	// mounts GET /metrics serving it in Prometheus text format. Nil
	// keeps every instrumented path at its zero-cost no-op.
	Metrics *obs.Registry
	// Logger receives structured request, job and admission logs with
	// per-request/per-job correlation ids. Nil discards them.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool
}

func (o *Options) fill() {
	o.Workers = parallel.Normalize(o.Workers)
	if o.MaxJobs <= 0 {
		o.MaxJobs = 2
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 32
	}
	if o.MaxHistory <= 0 {
		o.MaxHistory = 256
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 1 << 30
	}
}

// Server is the job manager plus its HTTP handler.
type Server struct {
	opts       Options
	jobWorkers int
	met        serverMetrics
	log        *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	slots  chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	next     int
	active   int  // admitted and not yet finalized (queued + running)
	draining bool // StartDrain called: refuse new admissions with 503
	// admitting holds job ids whose admission record is journaled but
	// whose job is not yet registered — a window journal compaction
	// must not drop.
	admitting           map[string]struct{}
	evictedSinceCompact int

	// flights single-flights private fits by release fingerprint: while
	// a fit for a question is queued or running, identical submissions
	// join its job instead of debiting and running again. Entries are
	// dropped after the result is in the cache (or the run failed), so
	// a successful question is always answerable by flight or cache.
	// Lock order: flightMu before mu (serveReleaseLocked/submit);
	// never the reverse.
	flightMu sync.Mutex
	flights  map[string]*job

	mux *http.ServeMux
}

// New returns a Server ready to serve its Handler.
func New(opts Options) *Server {
	opts.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		met:       newServerMetrics(opts.Metrics),
		log:       opts.Logger,
		ctx:       ctx,
		cancel:    cancel,
		slots:     make(chan struct{}, opts.MaxJobs),
		jobs:      map[string]*job{},
		flights:   map[string]*job{},
		admitting: map[string]struct{}{},
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	if opts.Metrics != nil {
		// One wiring point instruments every configured subsystem, so
		// `serve` gets the full metric surface from a single flag while
		// library callers keep per-component control via Instrument.
		if opts.Ledger != nil {
			opts.Ledger.Instrument(opts.Metrics)
		}
		if opts.Datasets != nil {
			opts.Datasets.Instrument(opts.Metrics)
		}
		if opts.Releases != nil {
			opts.Releases.Instrument(opts.Metrics)
		}
		if opts.Journal != nil {
			opts.Journal.Instrument(opts.Metrics)
		}
	}
	// Split the budget across the job slots: a saturated server stays
	// within Options.Workers total.
	s.jobWorkers = opts.Workers / opts.MaxJobs
	if s.jobWorkers < 1 {
		s.jobWorkers = 1
	}
	s.mux = http.NewServeMux()
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, rt.handler)
	}
	if opts.Journal != nil {
		s.replay()
	}
	return s
}

// route is one entry of the server's route table.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes is the server's route table: New registers exactly these, the
// metrics label each request by its pattern, and the release-closure
// test walks the same table, so a new route fails that test until it
// is classified. /metrics and the profiles are mounted only when
// configured.
func (s *Server) routes() []route {
	rs := []route{
		{"POST /v1/fit", s.handleFit},
		{"POST /v1/generate", s.handleGenerate},
		{"GET /v1/jobs", s.handleJobs},
		{"GET /v1/jobs/{id}", s.handleJob},
		{"GET /v1/jobs/{id}/trace", s.handleJobTrace},
		{"DELETE /v1/jobs/{id}", s.handleCancel},
		{"GET /v1/budget/{dataset}", s.handleBudget},
		{"POST /v1/datasets", s.handleDatasetImport},
		{"GET /v1/datasets", s.handleDatasetList},
		{"GET /v1/datasets/{id}", s.handleDatasetMeta},
		{"DELETE /v1/datasets/{id}", s.handleDatasetDelete},
		{"GET /v1/releases", s.handleReleaseList},
		{"GET /v1/releases/{id}", s.handleRelease},
		{"GET /healthz", s.handleHealth},
		{"GET /readyz", s.handleReady},
	}
	if s.opts.Metrics != nil {
		rs = append(rs, route{"GET /metrics", s.opts.Metrics.Handler().ServeHTTP})
	}
	if s.opts.EnablePprof {
		// Profiles expose runtime internals and cost CPU while sampling,
		// so an operator opts in (`serve -pprof`).
		rs = append(rs,
			route{"GET /debug/pprof/", pprof.Index},
			route{"GET /debug/pprof/cmdline", pprof.Cmdline},
			route{"GET /debug/pprof/profile", pprof.Profile},
			route{"GET /debug/pprof/symbol", pprof.Symbol},
			route{"GET /debug/pprof/trace", pprof.Trace})
	}
	return rs
}

// Handler returns the HTTP handler serving the job API, wrapped in
// the telemetry middleware (request ids, per-route metrics, access
// logs — all no-ops when Options left Metrics and Logger unset).
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Close cancels every queued and running job and waits for their
// goroutines to drain.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// StartDrain stops admission: subsequent job submissions are refused
// with 503 + Retry-After while everything already admitted keeps
// running. Cache hits, job polling, and the read-only endpoints stay
// available throughout.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain gracefully shuts the job manager down: admission stops, jobs
// already admitted run to completion until ctx expires, then
// stragglers are cancelled — and waited for, so every job's terminal
// state (done, failed, or cancelled) is journaled before Drain
// returns. The HTTP listener is the caller's to close; call Drain
// before closing the journal.
func (s *Server) Drain(ctx context.Context) {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: cancel what remains and wait for the cancellations
		// to finalize (each journals its cancelled record on the way
		// out).
		s.cancel()
		<-done
	}
}

// Job statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// StageProgress is one stage's furthest progress fraction, in the
// order the stages first reported, read from the job's stage spans.
type StageProgress struct {
	Stage string  `json:"stage"`
	Frac  float64 `json:"frac"`
	// Seconds is the stage span's duration so far (final once frac
	// reaches 1) — the same value as the span's seconds in
	// GET /v1/jobs/{id}/trace and as the dpkron_job_stage_seconds
	// observation an operator scrapes.
	Seconds float64 `json:"seconds,omitempty"`
}

type job struct {
	id     string
	kind   string
	cancel context.CancelFunc

	mu     sync.Mutex
	status string
	// ran records that the job reached running (vs cancelled straight
	// out of the queue) — it decides which gauge finalize decrements.
	ran bool
	// stages is the job's stage record, set when the job starts
	// running.
	stages *trace.StageSpans
	result any
	errMsg string
	// journaled marks the terminal state as recorded in the journal;
	// only journaled terminal jobs may be evicted from memory.
	journaled bool

	// tr and root carry the job's tracer and root span. Every admitted
	// job has them; jobs registered already terminal (journal history,
	// release-cache hits, journaled jobs that could not resume) never
	// ran here and have none. Set before the job is registered and
	// never mutated after, so they need no lock.
	tr   *trace.Tracer
	root *trace.Span
}

// setStatus transitions the job unless it already reached a terminal
// state: a DELETE that marked a queued job cancelled must not be
// overwritten by the goroutine racing into "running". Returns whether
// the transition applied.
func (j *job) setStatus(status string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) {
		return false
	}
	j.status = status
	if status == StatusRunning {
		j.ran = true
	}
	return true
}

func terminalStatus(s string) bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// view is the JSON representation returned by the jobs endpoints.
type view struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Status string          `json:"status"`
	Stages []StageProgress `json:"stages,omitempty"`
	Result any             `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func (j *job) view() view {
	j.mu.Lock()
	v := view{
		ID:     j.id,
		Kind:   j.kind,
		Status: j.status,
		Error:  j.errMsg,
	}
	if j.status == StatusDone {
		v.Result = j.result
	}
	stages := j.stages
	j.mu.Unlock()
	for _, st := range stages.Stages() {
		v.Stages = append(v.Stages, StageProgress{Stage: st.Name, Frac: st.Frac, Seconds: st.Seconds})
	}
	return v
}

// jobSpec is everything submit needs to admit, journal, and run a
// job. The admission payload fields (request, dataset, planned,
// releaseKey) are what a restarted server needs to resume the job
// from its journal record.
type jobSpec struct {
	kind string
	// id preassigns the job id (journal replay); empty allocates the
	// next "job-N".
	id string
	// replayed marks a journal-resumed job: its admission record is
	// already on disk and it was admitted once, so it bypasses the
	// queue cap and the admission journaling.
	replayed bool
	// request is the submitted body, journaled at admission so replay
	// can rebuild fn.
	request json.RawMessage
	// dataset, planned and releaseKey are the fit's ledger account,
	// admission debit, and release-cache key (private fits).
	dataset    string
	planned    *accountant.Receipt
	releaseKey *release.Key
	// admit runs after the admission record is journaled, before the
	// job is registered — the ledger-debit hook. With a journal it
	// receives the admission's unique spend token (journaled, so replay
	// re-issues the identical idempotent debit); without one the token
	// is empty and the hook debits plainly. On success it returns the
	// account's remaining budget as of the debit, which the audit
	// events record.
	admit func(token string) (dp.Budget, error)
	// token is a resumed admission's journaled spend token, which admit
	// receives in place of a fresh one.
	token string
	fn    func(run *pipeline.Run) (any, error)
	// requestID and traceID tie the journaled admission back to the
	// originating HTTP request, so a crash-resumed job's trace links to
	// the request that paid for it.
	requestID string
	traceID   string
	// tr and root are the job's tracer and root span; submit hangs
	// admission, queue-wait and run spans off them, and the job keeps
	// the tracer for GET /v1/jobs/{id}/trace.
	tr   *trace.Tracer
	root *trace.Span
}

// submit registers a job and launches its goroutine. fn runs once a
// job slot frees up, under a pipeline Run wired to the job's context
// and progress sink. Returns nil (plus an HTTP status and the reason)
// when the server is draining, the queue is full, or the admit hook
// refuses; a refusal by the hook is its error, unwrapped. The queue slot is reserved first, then journaling and
// admission run outside s.mu — both do disk I/O (fsync) and must not
// stall every other endpoint — so a committed debit never needs
// rolling back for a queue-full rejection, only the slot reservation
// is undone on refusal.
//
// With a journal, the write order carries the crash-consistency
// protocol: the admission record (fsynced) precedes the ledger debit,
// so a crash anywhere in between leaves a journaled job whose replay
// re-issues the debit under its idempotent job-id token — exactly one
// debit lands no matter where the crash fell. A refused admission is
// closed with a journaled failure so the admitted record never
// dangles; a refused resume is closed by replay.
func (s *Server) submit(spec jobSpec) (*job, int, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, errors.New("server is draining; retry against the restarted instance")
	}
	if !spec.replayed && s.active >= s.opts.MaxQueue {
		active := s.active
		s.mu.Unlock()
		return nil, http.StatusTooManyRequests, fmt.Errorf("job queue full (%d active)", active)
	}
	s.active++ // reserve the queue slot before the lock is dropped
	id := spec.id
	if id == "" {
		s.next++
		id = fmt.Sprintf("job-%d", s.next)
	}
	s.admitting[id] = struct{}{}
	s.mu.Unlock()
	undo := func() {
		s.mu.Lock()
		s.active--
		delete(s.admitting, id)
		s.mu.Unlock()
	}
	adm := spec.tr.Start(spec.root, "admission", trace.String("job_id", id))
	token := spec.token
	if s.opts.Journal != nil && !spec.replayed {
		// The spend token must be unique across process lifetimes (job
		// ids restart with the server; a collision with an old receipt
		// would silently skip a legitimate debit), and it must be
		// journaled before the debit so replay re-issues the identical
		// token.
		if spec.planned != nil {
			token = id + "-" + randomSuffix()
		}
		rec := journal.Record{
			Job: id, State: journal.StateAdmitted, Kind: spec.kind,
			Request: spec.request, Dataset: spec.dataset,
			Planned: spec.planned, Token: token, ReleaseKey: spec.releaseKey,
			RequestID: spec.requestID, TraceID: spec.traceID,
		}
		jsp := adm.Child("journal-append", trace.String("state", journal.StateAdmitted))
		err := s.opts.Journal.Append(rec, true)
		jsp.End()
		if err != nil {
			undo()
			return nil, http.StatusInternalServerError, fmt.Errorf("journaling admission: %w", err)
		}
	}
	if spec.admit != nil {
		deb := adm.Child("ledger-debit", trace.String("dataset", spec.dataset))
		rem, err := spec.admit(token)
		auditDebit(deb, spec.dataset, spec.planned, rem, err)
		deb.End()
		if err != nil {
			// Close the journaled admission with an explicit failure —
			// the invariant's "never silence" — before undoing the slot.
			if s.opts.Journal != nil && !spec.replayed {
				_ = s.opts.Journal.Append(journal.Record{
					Job: id, State: journal.StateFailed, Kind: spec.kind,
					Error: "admission refused: " + err.Error(),
				}, true)
			}
			adm.End()
			undo()
			status := http.StatusInternalServerError
			if errors.Is(err, accountant.ErrBudgetExhausted) {
				status = http.StatusTooManyRequests
			}
			return nil, status, err
		}
		if s.opts.Journal != nil && spec.planned != nil {
			// The debit landed; record it. Async is safe: losing this
			// record only means replay re-issues the idempotent token.
			_ = s.opts.Journal.Append(journal.Record{Job: id, State: journal.StateDebited}, false)
		}
	}
	s.mu.Lock()
	ctx, cancel := context.WithCancel(s.ctx)
	j := &job{
		id:     id,
		kind:   spec.kind,
		cancel: cancel,
		status: StatusQueued,
		tr:     spec.tr,
		root:   spec.root,
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	delete(s.admitting, id)
	s.wg.Add(1)
	s.mu.Unlock()
	adm.End()
	s.met.jobsSubmitted.With(spec.kind).Inc()
	s.met.jobsQueued.Inc()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "job admitted",
		slog.String("job_id", id), slog.String("kind", spec.kind),
		slog.String("dataset", spec.dataset), slog.Bool("replayed", spec.replayed))
	fn := spec.fn

	go func() {
		defer s.wg.Done()
		// finalize exactly once, on every exit path: release the job's
		// context resources, return its admission slot, and evict old
		// terminal jobs beyond the history bound.
		defer s.finalize(j)
		qsp := j.tr.Start(j.root, "queue-wait")
		select {
		case s.slots <- struct{}{}:
			qsp.End()
			defer func() { <-s.slots }()
		case <-ctx.Done():
			qsp.End()
			j.setStatus(StatusCancelled)
			return
		}
		if ctx.Err() != nil {
			j.setStatus(StatusCancelled)
			return
		}
		if j.setStatus(StatusRunning) {
			s.met.jobsQueued.Dec()
			s.met.jobsRunning.Inc()
		}
		if s.opts.Journal != nil {
			// Recoverable by re-execution, so async: a lost running
			// record only costs replay the knowledge that the fit had
			// started.
			_ = s.opts.Journal.Append(journal.Record{Job: j.id, State: journal.StateRunning}, false)
		}
		runSp := j.tr.Start(j.root, "run", trace.Int("workers", s.jobWorkers))
		stages := j.tr.StageSpans(runSp, trace.Int("workers", s.jobWorkers))
		j.mu.Lock()
		j.stages = stages
		j.mu.Unlock()
		// A stage's duration is observed when the event closing its span
		// arrives; stages a failed or cancelled run leaves open are
		// closed below but never observed.
		sink := func(e pipeline.Event) {
			if secs, closed := stages.Observe(e.Stage, e.Frac); closed {
				s.met.stageSeconds.With(e.Stage).Observe(secs)
			}
			if s.opts.EventLog != nil {
				s.opts.EventLog(j.id, e)
			}
		}
		res, err := fn(pipeline.New(ctx, s.jobWorkers, sink))
		stages.Close()
		runSp.End()
		j.mu.Lock()
		defer j.mu.Unlock()
		if terminalStatus(j.status) {
			// A DELETE already confirmed this job cancelled to the
			// client; keep that answer and drop any late result.
			return
		}
		switch {
		case err == nil:
			j.status = StatusDone
			j.result = res
		case errors.Is(err, context.Canceled) || ctx.Err() != nil:
			j.status = StatusCancelled
		default:
			j.status = StatusFailed
			j.errMsg = err.Error()
		}
	}()
	return j, http.StatusAccepted, nil
}

// terminal reports whether the job has finished (any outcome).
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalStatus(j.status)
}

// randomSuffix returns 8 random hex bytes for the per-admission spend
// token: job ids restart with the process, so the id alone could
// collide with a receipt journaled by an earlier instance.
func randomSuffix() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: reading random token suffix: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// finalize runs once per job, after it reaches a terminal state:
// journals the terminal transition (fsynced — the record that closes
// the job's debit, and the precondition for evicting it), releases
// the job context's resources, frees the admission slot, and evicts
// the oldest finished jobs beyond Options.MaxHistory.
func (s *Server) finalize(j *job) {
	j.cancel()
	jsp := j.tr.Start(j.root, "journal-append", trace.String("state", "terminal"))
	s.journalTerminal(j, true)
	jsp.End()
	j.mu.Lock()
	status, ran, errMsg := j.status, j.ran, j.errMsg
	j.mu.Unlock()
	j.root.SetAttr(trace.String("status", status))
	j.root.End()
	if ran {
		s.met.jobsRunning.Dec()
	} else {
		s.met.jobsQueued.Dec()
	}
	s.met.jobsCompleted.With(j.kind, status).Inc()
	attrs := []slog.Attr{
		slog.String("job_id", j.id),
		slog.String("kind", j.kind),
		slog.String("status", status),
	}
	level := slog.LevelInfo
	if errMsg != "" {
		attrs = append(attrs, slog.String("error", errMsg))
		level = slog.LevelWarn
	}
	s.log.LogAttrs(context.Background(), level, "job finished", attrs...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	s.evictHistoryLocked()
}

// journalTerminal appends the job's terminal record and marks the job
// evictable. If the append fails, the job stays unjournaled — and
// therefore never evicted from memory — so its outcome remains
// observable somewhere: never silence.
func (s *Server) journalTerminal(j *job, sync bool) {
	if s.opts.Journal == nil {
		j.mu.Lock()
		j.journaled = true
		j.mu.Unlock()
		return
	}
	j.mu.Lock()
	rec := journal.Record{Job: j.id, State: j.status, Kind: j.kind, Error: j.errMsg}
	if j.status == StatusDone && j.result != nil {
		// Retain the result when it fits the cap so GET /v1/jobs/{id}
		// answers across restarts; an oversized payload (a huge generate
		// edge list) is elided, keeping only the done state.
		if raw, err := json.Marshal(j.result); err == nil && len(raw) <= journal.MaxResultBytes {
			rec.Result = raw
		}
	}
	j.mu.Unlock()
	if err := s.opts.Journal.Append(rec, sync); err != nil {
		return
	}
	j.mu.Lock()
	j.journaled = true
	j.mu.Unlock()
}

// evictable reports whether the job may be dropped from memory: it
// must be terminal AND have its terminal state journaled (with a
// journal configured, the journal is the source of truth for
// -max-history — evicting an unjournaled terminal job would erase its
// outcome entirely).
func (j *job) evictable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalStatus(j.status) && j.journaled
}

// evictHistoryLocked drops the oldest evictable terminal jobs beyond
// Options.MaxHistory, and periodically compacts the journal down to
// the retained set so the log tracks the same bound; callers hold
// s.mu.
func (s *Server) evictHistoryLocked() {
	finished := len(s.order) - s.active
	if finished <= s.opts.MaxHistory {
		return
	}
	evict := finished - s.opts.MaxHistory
	kept := s.order[:0]
	evicted := 0
	for _, id := range s.order {
		if evict > 0 && s.jobs[id].evictable() {
			// The job holds its tracer, so its span tree goes with it.
			delete(s.jobs, id)
			evict--
			evicted++
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	if evicted == 0 || s.opts.Journal == nil {
		return
	}
	// Compact once a quarter of the history bound has churned:
	// amortized O(1) records of rewrite per finished job, while the
	// journal never holds more than ~MaxHistory + MaxHistory/4 + active
	// jobs. Keep everything still registered or mid-admission.
	s.evictedSinceCompact += evicted
	if s.evictedSinceCompact*4 < s.opts.MaxHistory {
		return
	}
	s.evictedSinceCompact = 0
	_ = s.opts.Journal.Compact(func(id string) bool {
		if _, ok := s.jobs[id]; ok {
			return true
		}
		_, ok := s.admitting[id]
		return ok
	})
}

// completedJob registers a job that is already done — a fit answered
// from the release cache. It never held a queue slot or admission
// debit, so only the history bound applies; registering it keeps the
// jobs API uniform (the hit is pollable and listed like any fit). The
// single done record it journals (async — no debit rides on it) is
// what lets the hit answer by job id across restarts and be evicted.
func (s *Server) completedJob(kind string, result any) *job {
	s.mu.Lock()
	s.next++
	j := &job{
		id:     fmt.Sprintf("job-%d", s.next),
		kind:   kind,
		cancel: func() {},
		status: StatusDone,
		result: result,
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.journalTerminal(j, false)
	s.mu.Lock()
	s.evictHistoryLocked()
	s.mu.Unlock()
	return j
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]view, 0, len(ids))
	for _, id := range ids {
		if j := s.lookup(id); j != nil {
			out = append(out, j.view())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	j.cancel()
	// A queued job flips to cancelled synchronously; a running one
	// transitions when its pipeline observes the context.
	j.mu.Lock()
	if j.status == StatusQueued {
		j.status = StatusCancelled
	}
	v := view{ID: j.id, Kind: j.kind, Status: j.status}
	j.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

// handleBudget reports a dataset's ledger account: configured budget,
// composed spend, remaining allowance, and receipt count.
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	if s.opts.Ledger == nil {
		writeError(w, http.StatusNotFound, "no ledger configured (start the server with a ledger to enforce budgets)")
		return
	}
	ds := r.PathValue("dataset")
	acct, ok := s.opts.Ledger.Account(ds)
	if !ok {
		// A dataset the store holds but the ledger has never seen is a
		// real dataset with the default-deny zero budget — report that
		// consistently instead of a 404 that would contradict
		// GET /v1/datasets/{id}. Ids known to neither are 404s, the
		// same JSON error shape the fit and dataset routes use.
		if s.opts.Datasets == nil || !s.opts.Datasets.Has(ds) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown dataset %q (set a budget with `dpkron budget set`)", ds))
			return
		}
		acct = accountant.Account{}
	}
	rem := acct.Remaining()
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":   ds,
		"budget":    acct.Budget,
		"spent":     acct.Spent,
		"remaining": rem,
		"receipts":  len(acct.Receipts),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
