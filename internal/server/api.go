package server

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/extsort"
	"dpkron/internal/graph"
	"dpkron/internal/kronfit"
	"dpkron/internal/kronmom"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/release"
	"dpkron/internal/skg"
	"dpkron/internal/trace"
)

// FitRequest is the body of POST /v1/fit. The graph arrives as an
// explicit pair list (Edges, with Nodes optionally raising the node
// count), as SNAP edge-list text (EdgeList), or — for a private fit on
// a server with a dataset store — as a stored dataset id (DatasetID);
// exactly one is required.
type FitRequest struct {
	// Method selects the estimator: "private" (default), "mom", "mle".
	// The non-private methods release exact statistics of their input,
	// so they take inline graphs only: the caller already holds them.
	Method string `json:"method"`
	// Eps/Delta are the privacy budget for method "private"
	// (defaults 0.2, 0.01).
	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta"`
	// K is the Kronecker power; 0 infers the smallest adequate power.
	K int `json:"k"`
	// Seed drives all estimator randomness (default 1); resubmitting an
	// identical request yields an identical result.
	Seed uint64 `json:"seed"`
	// Dataset names the ledger account a private fit is charged to when
	// the server enforces budgets; empty selects the content fingerprint
	// of the submitted graph (accountant.DatasetID), so repeated fits of
	// the same graph share one account. Ignored without a ledger.
	Dataset string `json:"dataset,omitempty"`
	// Nodes is the minimum node count (0 = max endpoint + 1).
	Nodes int `json:"nodes"`
	// Edges lists node pairs; loops are dropped, duplicates merged.
	Edges [][2]int `json:"edges,omitempty"`
	// EdgeList is SNAP edge-list text ('#' comments, one pair per line).
	EdgeList string `json:"edgelist,omitempty"`
	// DatasetID names a graph previously imported into the server's
	// dataset store (POST /v1/datasets), replacing the inline forms.
	// Stored data leaves the server only as a private fit: a "mom" or
	// "mle" request naming a dataset id is refused with 400. Ledger
	// debits default to this same id, so budget follows the stored
	// graph.
	DatasetID string `json:"dataset_id,omitempty"`
}

// errNonPrivateByID refuses a non-private fit of a stored dataset.
var errNonPrivateByID = errors.New(`a stored dataset (dataset_id) is fitted only by method "private", which the ledger debits; methods mom and mle release exact statistics and take an inline graph`)

// Normalize fills a request's defaults and checks the rules every fit
// is held to — handleFit before any store access, journal record or
// job, replay before a resume, and `dpkron fit` before it loads its
// graph — so a journaled request resumes only if a fresh one would be
// admitted.
func (r *FitRequest) Normalize() error {
	if r.Method == "" {
		r.Method = "private"
	}
	if r.Eps == 0 {
		r.Eps = 0.2
	}
	if r.Delta == 0 {
		r.Delta = 0.01
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	method := strings.ToLower(r.Method)
	switch method {
	case "private":
		// Bad budgets fail here (400), not deep inside the job.
		if err := (dp.Budget{Eps: r.Eps, Delta: r.Delta}).Validate(); err != nil {
			return err
		}
	case "mom", "mle":
		if r.DatasetID != "" {
			return errNonPrivateByID
		}
	default:
		return fmt.Errorf("unknown method %q (want private, mom or mle)", r.Method)
	}
	r.Method = method
	return nil
}

// byID reports whether the request names a stored dataset alone;
// naming one next to an inline graph is the inline parser's 400.
func (r *FitRequest) byID() bool {
	return r.DatasetID != "" && len(r.Edges) == 0 && r.EdgeList == ""
}

// maxGraphNodes caps the node count a fit request may imply. Graph
// construction allocates O(n) CSR arrays, so without this cap a
// ~30-byte body naming node id 2e9 would force a multi-gigabyte
// allocation regardless of maxBodyBytes. 2^24 nodes (offset arrays in
// the hundreds of MB) is far beyond any edge list that fits the body
// cap.
const maxGraphNodes = 1 << 24

func (r *FitRequest) graph() (*graph.Graph, error) {
	if r.Nodes > maxGraphNodes {
		return nil, fmt.Errorf("nodes = %d exceeds the per-request cap of %d", r.Nodes, maxGraphNodes)
	}
	switch {
	case (len(r.Edges) > 0 && r.EdgeList != "") ||
		(r.DatasetID != "" && (len(r.Edges) > 0 || r.EdgeList != "")):
		return nil, fmt.Errorf("provide exactly one of edges, edgelist or dataset_id")
	case len(r.Edges) > 0:
		n := r.Nodes
		for _, e := range r.Edges {
			if e[0] < 0 || e[1] < 0 {
				return nil, fmt.Errorf("negative node id in edge [%d, %d]", e[0], e[1])
			}
			if e[0] >= n {
				n = e[0] + 1
			}
			if e[1] >= n {
				n = e[1] + 1
			}
		}
		if n > maxGraphNodes {
			return nil, fmt.Errorf("edge node ids imply %d nodes, exceeding the per-request cap of %d", n, maxGraphNodes)
		}
		return graph.FromEdges(n, r.Edges), nil
	case r.EdgeList != "":
		// The cap covers node ids on edge lines AND "# Nodes: N" header
		// comments (which ReadEdgeList honours), both rejected before
		// the O(n) graph arrays are allocated.
		return graph.ReadEdgeListLimit(strings.NewReader(r.EdgeList), r.Nodes, maxGraphNodes)
	default:
		return nil, fmt.Errorf("edges or edgelist is required")
	}
}

// InitiatorJSON is a fitted or requested initiator in JSON form.
type InitiatorJSON struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
	C float64 `json:"c"`
}

// FitResult is the result payload of a completed fit job.
type FitResult struct {
	Method    string        `json:"method"`
	Initiator InitiatorJSON `json:"initiator"`
	K         int           `json:"k"`
	// Objective is the moment objective at the optimum (mom, private).
	Objective *float64 `json:"objective,omitempty"`
	// LogLikelihood is the approximate ll at the optimum (mle).
	LogLikelihood *float64 `json:"loglikelihood,omitempty"`
	// Privacy echoes the composed guarantee (private only).
	Privacy *dp.Budget `json:"privacy,omitempty"`
	// Spent is the receipt total — the (ε, δ) the run's mechanisms
	// actually charged (private only).
	Spent *dp.Budget `json:"spent,omitempty"`
	// Receipt itemizes the run's mechanism charges (private only).
	Receipt *accountant.Receipt `json:"receipt,omitempty"`
	// Dataset and Remaining report the ledger account charged and what
	// it had left as of admission, right after this fit's debit
	// (ledger-enforced private fits only).
	Dataset   string     `json:"dataset,omitempty"`
	Remaining *dp.Budget `json:"remaining,omitempty"`
	// Features are the released feature counts the fit used (private
	// only).
	Features *FeaturesJSON `json:"features,omitempty"`
}

// FeaturesJSON is a private fit's released feature counts in JSON form.
type FeaturesJSON struct {
	E     float64 `json:"e"`
	H     float64 `json:"h"`
	T     float64 `json:"t"`
	Delta float64 `json:"delta"`
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	var req FitRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.decodeError(w, r, err)
		return
	}
	if err := req.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The job's tracer joins the trace context the middleware already
	// established (and echoed), so the trace id the client holds finds
	// this job's span tree.
	tr, root := startJobTrace(r, "fit/"+req.Method)
	cached, charged := s.fitGates(req.Method)
	serve := func(key release.Key) bool { return s.serveReleaseLocked(w, key) }
	// A private fit's question is keyed by the content fingerprint of
	// (dataset, ε, δ, policy, mechanism config, seed). A stored dataset's
	// key is built from its metadata (the inferred Kronecker power needs
	// only the node count), so a repeated question skips even the graph
	// load. A failed metadata read falls through to keying after the
	// load.
	var key *release.Key
	if cached && req.byID() && s.opts.Datasets != nil {
		var meta dataset.Meta
		var err error
		if req.K <= 0 {
			meta, err = s.opts.Datasets.Meta(req.DatasetID)
		}
		if err == nil {
			key = ReleaseKey(&req, req.DatasetID, meta.Nodes)
			lk := root.Child("release-cache-lookup")
			s.flightMu.Lock()
			handled := serve(*key)
			s.flightMu.Unlock()
			lk.SetAttr(trace.String("hit", strconv.FormatBool(handled)))
			lk.End()
			if handled {
				return
			}
		}
	}
	g, status, err := s.fitGraph(&req, root)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	// A stored dataset's id already is its content fingerprint; inline
	// graphs are fingerprinted here, so identical bytes share one cache
	// entry and one budget account however they arrived.
	id := req.DatasetID
	if id == "" && (cached || charged) {
		id = accountant.DatasetID(g)
	}
	if cached && key == nil {
		key = ReleaseKey(&req, id, g.NumNodes())
	}
	reqJSON, _ := json.Marshal(&req)
	spec := jobSpec{
		request:   reqJSON,
		requestID: RequestIDFrom(r.Context()),
		traceID:   tr.TraceID(),
		tr:        tr,
		root:      root,
	}
	if charged {
		// Algorithm 1's charge schedule is data-independent, so the
		// full requested budget is known, and debited, at admission.
		spec.dataset = req.Dataset
		if spec.dataset == "" {
			spec.dataset = id
		}
		p := core.PlannedReceipt(req.Eps, req.Delta)
		spec.planned = &p
	}
	fj := fitJob{req: req, relKey: key, loadGraph: func() (*graph.Graph, error) { return g, nil }}
	j, status, err := s.admitFit(spec, fj, serve)
	var refused *accountant.ExhaustedError
	switch {
	case j != nil:
		writeJSON(w, status, j.view())
	case err == nil:
		// Answered by serve.
	case errors.As(err, &refused):
		// Budget refusals answer with the machine-readable remaining
		// budget so clients can right-size their next request, and a
		// Retry-After suited to budgets (a raise is an operator action,
		// not a momentary spike).
		rem := refused.Remaining()
		s.rejectAdmission(r, rejectBudget, spec.dataset, err.Error(),
			slog.Float64("remaining_eps", rem.Eps),
			slog.Float64("remaining_delta", rem.Delta))
		setRetryAfter(w, http.StatusTooManyRequests, true)
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":     err.Error(),
			"dataset":   spec.dataset,
			"remaining": rem,
		})
	default:
		s.rejectAdmission(r, rejectReason(status), spec.dataset, err.Error())
		setRetryAfter(w, status, false)
		writeError(w, status, err.Error())
	}
}

// fitGates reports whether a fit of the given method is memoized in
// the release cache and whether it is debited against the ledger:
// both apply to private fits only, on a server configured with them.
func (s *Server) fitGates(method string) (cached, charged bool) {
	private := method == "private"
	return private && s.opts.Releases != nil, private && s.opts.Ledger != nil
}

// ReleaseKey is the release-cache key of a private fit of the dataset
// with the given content id and node count.
func ReleaseKey(req *FitRequest, id string, nodes int) *release.Key {
	k := req.K
	if k <= 0 {
		k = kronmom.KForNodes(nodes)
	}
	key := release.KeyFor(id, req.Eps, req.Delta, k, req.Seed, core.PlannedReceipt(req.Eps, req.Delta))
	return &key
}

// fitGraph resolves a fit's graph, a stored dataset or the inline
// edges, under a dataset-load span. It is the one graph choice of both
// admission paths: handleFit answers a failure with the returned
// status, and a resumed job fails with the error.
func (s *Server) fitGraph(req *FitRequest, root *trace.Span) (*graph.Graph, int, error) {
	if !req.byID() {
		sp := root.Child("dataset-load", trace.String("source", "inline"))
		defer sp.End()
		g, err := req.graph()
		return g, http.StatusBadRequest, err
	}
	sp := root.Child("dataset-load", trace.String("dataset_id", req.DatasetID), trace.String("source", "store"))
	defer sp.End()
	if s.opts.Datasets == nil {
		return nil, http.StatusNotFound, errNoStore
	}
	g, err := s.opts.Datasets.Load(req.DatasetID)
	return g, datasetStatus(err), err
}

// fitJob is what a fit job runs, built from the HTTP request on the
// admission path and from the journaled admission record on the replay
// path, so a resumed fit runs the identical code (same seed, same
// mechanisms) and lands the identical release.
type fitJob struct {
	// req is the FitRequest after normalize — the form that is
	// journaled, so replay never re-derives defaults.
	req FitRequest
	// relKey is the release-cache key of a cached fit, nil otherwise.
	relKey *release.Key
	// loadGraph yields the graph inside the job: the HTTP path closes
	// over the graph it already loaded, replay loads it there, so a
	// load failure becomes a journaled job failure, never silence.
	loadGraph func() (*graph.Graph, error)
}

// admitFit is the one admission path for fit jobs, shared by handleFit
// and journal replay. A charged spec (spec.planned set) gets the
// ledger-debit hook: it debits spec.dataset with the admission's spend
// token (the journaled one on replay, so a resume re-issues the
// identical idempotent debit) and reads the account once, right after
// the debit, for the audit events and the result's remaining budget.
//
// A cached fit is single-flighted by its release key. Under flightMu,
// hit may answer the question instead of a job (a nil job and a nil
// error); otherwise the admitted job is the question's flight until it
// ends. The lock makes miss-then-debit atomic: of N concurrent
// identical requests, exactly one passes the ledger debit and runs.
func (s *Server) admitFit(spec jobSpec, fj fitJob, hit func(release.Key) bool) (*job, int, error) {
	spec.kind = "fit/" + fj.req.Method
	var remaining *dp.Budget
	if spec.planned != nil {
		remaining = new(dp.Budget)
		dataset, planned := spec.dataset, *spec.planned
		spec.admit = func(token string) (dp.Budget, error) {
			var err error
			if token == "" {
				err = s.opts.Ledger.Spend(dataset, planned)
			} else {
				err = s.opts.Ledger.SpendToken(dataset, planned, token)
			}
			if err != nil {
				return dp.Budget{}, err
			}
			*remaining = s.opts.Ledger.Remaining(dataset)
			return *remaining, nil
		}
	}
	fn := s.fitFn(fj, spec.dataset, remaining, spec.root)
	if fj.relKey == nil {
		spec.fn = fn
		return s.submit(spec)
	}
	fp := fj.relKey.Fingerprint()
	spec.releaseKey = fj.relKey
	spec.fn = func(run *pipeline.Run) (any, error) {
		// Drop the flight registration on every exit; on success the
		// release is already in the cache, so the question is always
		// answerable by either the flight map or the cache.
		defer func() {
			s.flightMu.Lock()
			delete(s.flights, fp)
			s.flightMu.Unlock()
		}()
		return fn(run)
	}
	lk := spec.root.Child("release-cache-lookup", trace.String("fingerprint", fp))
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	handled := hit(*fj.relKey)
	lk.SetAttr(trace.String("hit", strconv.FormatBool(handled)))
	lk.End()
	if handled {
		return nil, 0, nil
	}
	j, status, err := s.submit(spec)
	if j != nil {
		s.flights[fp] = j
	}
	return j, status, err
}

// fitFn builds the job closure executing the fit described by fj.
// dataset is the ledger account the result names; remaining, filled by
// the admission debit before the job runs, is the account's remaining
// budget (nil for fits no ledger charges). The run's accountant
// charges land on root as audit events, and the release-cache Put gets
// a span under it.
func (s *Server) fitFn(fj fitJob, dataset string, remaining *dp.Budget, root *trace.Span) func(run *pipeline.Run) (any, error) {
	return func(run *pipeline.Run) (any, error) {
		g, err := fj.loadGraph()
		if err != nil {
			return nil, err
		}
		out, err := RunFit(run, g, fj.req, dataset, auditObserver(root))
		if err != nil {
			return nil, err
		}
		if fj.relKey != nil {
			// Memoize the release itself — before Remaining is filled,
			// which reports ledger state, not part of the answer. A
			// failed Put costs future hits, not this run's correctness.
			psp := root.Child("release-cache-put")
			_, _ = s.opts.Releases.Put(*fj.relKey, out)
			psp.End()
		}
		out.Remaining = remaining
		return out, nil
	}
}

// RunFit runs the fit req describes on g: the one implementation of
// each method, behind POST /v1/fit and `dpkron fit` alike. req must be
// normalized. A private fit runs under an accountant capped at exactly
// the request's budget — the debit a ledger takes at admission — so no
// mechanism can spend beyond it; observe, which may be nil, sees each
// of its charges. dataset is the ledger account a private result
// names.
func RunFit(run *pipeline.Run, g *graph.Graph, req FitRequest, dataset string, observe accountant.Observer) (FitResult, error) {
	rng := randx.New(req.Seed)
	switch req.Method {
	case "mom":
		est, err := kronmom.FitGraphCtx(run, g, req.K, kronmom.Options{Rng: rng})
		if err != nil {
			return FitResult{}, err
		}
		return FitResult{
			Method:    req.Method,
			Initiator: InitiatorJSON{est.Init.A, est.Init.B, est.Init.C},
			K:         est.K,
			Objective: &est.Objective,
		}, nil
	case "mle":
		res, err := kronfit.FitCtx(run, g, kronfit.Options{K: req.K, Rng: rng})
		if err != nil {
			return FitResult{}, err
		}
		return FitResult{
			Method:        req.Method,
			Initiator:     InitiatorJSON{res.Init.A, res.Init.B, res.Init.C},
			K:             res.K,
			LogLikelihood: &res.LogLikelihood,
		}, nil
	default: // private
		acc := accountant.New(nil).
			WithLimit(dp.Budget{Eps: req.Eps, Delta: req.Delta}).
			WithObserver(observe)
		res, err := core.EstimateCtx(run, g, core.Options{
			Eps: req.Eps, Delta: req.Delta, K: req.K, Rng: rng, Accountant: acc,
		})
		if err != nil {
			return FitResult{}, err
		}
		return PrivateFitResult(res, dataset), nil
	}
}

// setRetryAfter attaches the Retry-After hint matched to why the
// request was refused: a queue spike clears in about a second, a
// draining server is replaced within seconds, an exhausted budget
// waits on an operator raising it.
func setRetryAfter(w http.ResponseWriter, status int, budget bool) {
	switch {
	case budget:
		w.Header().Set("Retry-After", "60")
	case status == http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "10")
	case status == http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
	}
}

// Per-request bounds for generate jobs: maxGenerateK matches the fit
// endpoint's maxGraphNodes (2^24 nodes); maxExactK additionally bounds
// the exact sampler, whose cost is quadratic in the node count (k = 16
// is ~2^31 pair draws — minutes on one worker, and cancellable);
// maxGenerateEdges bounds the ball-drop dedup and the result payload.
const (
	maxGenerateK     = 24
	maxExactK        = 16
	maxGenerateEdges = 1 << 26
)

// GenerateRequest is the body of POST /v1/generate: the initiator
// entries, the Kronecker power, and the sampler configuration.
type GenerateRequest struct {
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	C    float64 `json:"c"`
	K    int     `json:"k"`
	Seed uint64  `json:"seed"`
	// Method selects the sampler: "auto" (default; exact for K <= 13),
	// "exact", "balldrop".
	Method string `json:"method"`
	// Target overrides the ball-drop edge target (0 = expected count).
	// A target selects ball dropping under "auto" and is rejected with
	// "exact", which cannot honour it.
	Target int `json:"target"`
	// OmitEdges drops the edge list from the result (counts only) for
	// large graphs.
	OmitEdges bool `json:"omit_edges"`
	// Store saves the sampled graph into the server's dataset store:
	// the result then carries the dataset's public view, and the graph
	// can be fitted privately later by dataset_id instead of re-shipping
	// edges.
	// Requires a configured store (404 otherwise). Usually paired with
	// omit_edges.
	Store bool `json:"store,omitempty"`
	// Name labels the stored dataset (with store only).
	Name string `json:"name,omitempty"`
}

// GenerateResult is the result payload of a completed generate job.
type GenerateResult struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// EdgeList is the sampled graph in SNAP edge-list text (omitted
	// when the request set omit_edges).
	EdgeList string `json:"edgelist,omitempty"`
	// Dataset is the stored dataset's public view (store requests
	// only); Dataset.ID is directly usable as a private fit request's
	// dataset_id.
	Dataset *DatasetView `json:"dataset,omitempty"`
}

// Normalize fills a generate request's defaults (seed 1, method
// auto) and applies the sampler rules every draw is held to, over HTTP
// and in `dpkron generate`: the method is one of auto, exact and
// balldrop, and a target, which only ball dropping can honour, must not
// be negative and selects ball dropping under auto.
func (r *GenerateRequest) Normalize() error {
	if r.Seed == 0 {
		r.Seed = 1
	}
	method := strings.ToLower(r.Method)
	switch method {
	case "":
		method = "auto"
	case "auto", "exact", "balldrop":
	default:
		return fmt.Errorf("unknown method %q (want auto, exact or balldrop)", r.Method)
	}
	switch {
	case r.Target < 0:
		return fmt.Errorf("target = %d is negative (0 = expected count)", r.Target)
	case r.Target > 0 && method == "exact":
		return errors.New("target applies to ball dropping; method exact cannot honour it")
	case r.Target > 0:
		method = "balldrop"
	}
	r.Method = method
	return nil
}

// Generate draws the graph of model m that the normalized request req
// describes: the one sampler choice behind POST /v1/generate and
// `dpkron generate`. With st nil the sample is held in memory and
// returned. Otherwise it spills through an external sort into one
// sorted run, which the store's v2 encoder re-reads once per row
// window — peak residency is O(n) offsets plus one window, not
// O(edges) — and Generate returns the stored dataset's metadata and
// whether this call created it. For the same seed both routes draw the
// same graph.
func Generate(run *pipeline.Run, m skg.Model, req GenerateRequest, st *dataset.Store) (*graph.Graph, dataset.Meta, bool, error) {
	rng := randx.New(req.Seed)
	if st == nil {
		var g *graph.Graph
		var err error
		switch {
		case req.Method == "exact":
			g, err = m.SampleExactCtx(run, rng)
		case req.Method == "balldrop" && req.Target > 0:
			g, err = m.SampleBallDropNCtx(run, rng, req.Target)
		case req.Method == "balldrop":
			g, err = m.SampleBallDropCtx(run, rng)
		default:
			g, err = m.SampleCtx(run, rng)
		}
		return g, dataset.Meta{}, false, err
	}
	sorter, err := extsort.NewTemp(nil, 0)
	if err != nil {
		return nil, dataset.Meta{}, false, err
	}
	defer sorter.RemoveAll()
	var es *skg.EdgeStream
	switch {
	case req.Method == "exact":
		es, err = m.StreamExactCtx(run, rng, sorter)
	case req.Method == "balldrop" && req.Target > 0:
		es, err = m.StreamBallDropNCtx(run, rng, req.Target, sorter)
	case req.Method == "balldrop":
		es, err = m.StreamBallDropCtx(run, rng, sorter)
	default:
		es, err = m.StreamCtx(run, rng, sorter)
	}
	if err != nil {
		return nil, dataset.Meta{}, false, err
	}
	defer es.Close()
	meta, created, err := st.PutStream(es, req.Name, "generated")
	return nil, meta, created, err
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.decodeError(w, r, err)
		return
	}
	if err := req.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Bound the work a generate job may pin a slot with, mirroring the
	// fit endpoint's maxGraphNodes guard: K caps the CSR allocation
	// (2^K nodes), the exact sampler additionally costs O(4^K) pair
	// draws, and target caps the dedup/result size.
	switch {
	case req.K > maxGenerateK:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("k = %d exceeds the per-request cap of %d", req.K, maxGenerateK))
		return
	case req.Method == "exact" && req.K > maxExactK:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("method exact is capped at k = %d (O(4^k) pair draws); use balldrop or auto", maxExactK))
		return
	case req.Target > maxGenerateEdges:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("target = %d exceeds the per-request cap of %d edges", req.Target, maxGenerateEdges))
		return
	}
	m, err := skg.NewModel(skg.Initiator{A: req.A, B: req.B, C: req.C}, req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var store *dataset.Store
	if req.Store {
		if store = s.requireStore(w); store == nil {
			return
		}
	}
	tr, root := startJobTrace(r, "generate")
	reqJSON, _ := json.Marshal(&req)
	spec := jobSpec{
		kind: "generate", request: reqJSON,
		requestID: RequestIDFrom(r.Context()), traceID: tr.TraceID(),
		tr: tr, root: root,
	}
	spec.fn = func(run *pipeline.Run) (any, error) {
		g, meta, _, err := Generate(run, m, req, store)
		if err != nil {
			return nil, err
		}
		var res GenerateResult
		if store != nil {
			// A returned edge list is read back from the stored file.
			res = GenerateResult{Nodes: meta.Nodes, Edges: meta.Edges, Dataset: publicView(meta)}
			if req.OmitEdges {
				return res, nil
			}
			if g, err = store.Load(meta.ID); err != nil {
				return nil, err
			}
		} else {
			res = GenerateResult{Nodes: g.NumNodes(), Edges: g.NumEdges()}
		}
		if !req.OmitEdges {
			var sb strings.Builder
			if err := g.WriteEdgeList(&sb); err != nil {
				return nil, err
			}
			res.EdgeList = sb.String()
		}
		return res, nil
	}
	j, status, err := s.submit(spec)
	if j == nil {
		s.rejectAdmission(r, rejectReason(status), "", err.Error())
		setRetryAfter(w, status, false)
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, status, j.view())
}

// maxBodyBytes bounds request bodies (64 MiB covers multi-million-edge
// lists while keeping a hostile POST from exhausting memory).
const maxBodyBytes = 64 << 20

// errBodyTooLarge marks a decode failure caused by the body cap —
// raw or decompressed — so callers can answer 413 (and count the
// rejection) instead of a generic 400.
var errBodyTooLarge = errors.New("request body exceeds the size limit")

// decodeError answers a failed decodeJSON: over-cap bodies are 413
// Payload Too Large, counted and warn-logged as admission rejections
// (these used to vanish as anonymous 400s); anything else is a plain
// 400.
func (s *Server) decodeError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, errBodyTooLarge) {
		s.rejectAdmission(r, rejectBodyTooLarge, "", err.Error())
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

// decodeJSON parses a request body, bounding its size and rejecting
// unknown fields so typos in job specs fail fast instead of silently
// defaulting. Gzipped bodies are transparent — declared via
// Content-Encoding: gzip or detected by the 1f 8b magic (valid JSON
// cannot start with those bytes) — so clients can ship multi-million-
// edge inline lists compressed; both the compressed and decompressed
// sizes are bounded by the same cap.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var src io.Reader = body
	gzipped := strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip")
	if !gzipped {
		head, _ := body.Peek(2)
		gzipped = len(head) == 2 && head[0] == 0x1f && head[1] == 0x8b
	}
	var lr *io.LimitedReader
	if gzipped {
		gz, err := gzip.NewReader(body)
		if err != nil {
			return fmt.Errorf("invalid gzip body: %w", err)
		}
		defer gz.Close()
		// Cap the decompressed stream too: a gzip bomb must not expand
		// past what an uncompressed request could ship. One extra byte
		// of headroom distinguishes over-cap from truncated JSON.
		lr = &io.LimitedReader{R: gz, N: maxBodyBytes + 1}
		src = lr
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if lr != nil && lr.N <= 0 {
			return fmt.Errorf("%w: gzipped body decompresses past the %d-byte limit", errBodyTooLarge, maxBodyBytes)
		}
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: body exceeds the %d-byte limit", errBodyTooLarge, maxBodyBytes)
		}
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}
