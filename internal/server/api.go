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
	"dpkron/internal/stats"
	"dpkron/internal/trace"
)

// FitRequest is the body of POST /v1/fit. The graph arrives as an
// explicit pair list (Edges, with Nodes optionally raising the node
// count), as SNAP edge-list text (EdgeList), or — when the server has
// a dataset store — as a stored dataset id (DatasetID); exactly one is
// required.
type FitRequest struct {
	// Method selects the estimator: "private" (default), "mom", "mle".
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
	// Ledger debits default to this same id, so budget follows the
	// stored graph.
	DatasetID string `json:"dataset_id,omitempty"`
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
	// it has left (ledger-enforced private fits only).
	Dataset   string     `json:"dataset,omitempty"`
	Remaining *dp.Budget `json:"remaining,omitempty"`
	// Features are the (private, for method private; exact otherwise)
	// feature counts used by the fit.
	Features *struct {
		E     float64 `json:"e"`
		H     float64 `json:"h"`
		T     float64 `json:"t"`
		Delta float64 `json:"delta"`
	} `json:"features,omitempty"`
}

func featuresJSON(f stats.Features) *struct {
	E     float64 `json:"e"`
	H     float64 `json:"h"`
	T     float64 `json:"t"`
	Delta float64 `json:"delta"`
} {
	return &struct {
		E     float64 `json:"e"`
		H     float64 `json:"h"`
		T     float64 `json:"t"`
		Delta float64 `json:"delta"`
	}{f.E, f.H, f.T, f.Delta}
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	var req FitRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.decodeError(w, r, err)
		return
	}
	if req.Method == "" {
		req.Method = "private"
	}
	if req.Eps == 0 {
		req.Eps = 0.2
	}
	if req.Delta == 0 {
		req.Delta = 0.01
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	method := strings.ToLower(req.Method)
	switch method {
	case "private", "mom", "mle":
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown method %q (want private, mom or mle)", req.Method))
		return
	}
	if method == "private" {
		// Reject bad budgets at the door (400) instead of deep inside the
		// job (failed status); the zero-value defaults above are valid.
		if err := (dp.Budget{Eps: req.Eps, Delta: req.Delta}).Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	// The job's tracer joins the trace context the middleware already
	// established (and echoed), so the trace id the client holds finds
	// this job's span tree. Nil tracer/span when tracing is off — every
	// use below no-ops.
	tr, root := s.startJobTrace(r, "fit/"+method)
	// Release-cache keying: a private fit's question is identified by
	// the content fingerprint of (dataset bytes, ε, δ, policy,
	// mechanism config, seed). The key is built before the graph is
	// decoded when the request names a stored dataset, so a repeated
	// question skips even the graph load.
	useCache := s.opts.Releases != nil && method == "private"
	var relKey release.Key
	var haveKey bool
	var g *graph.Graph
	var err error
	if req.DatasetID != "" && len(req.Edges) == 0 && req.EdgeList == "" {
		// Fit-by-id: resolve the stored graph. Unknown ids — and a
		// server without a store — are 404s with a JSON body, matching
		// the dataset routes.
		st := s.requireStore(w)
		if st == nil {
			return
		}
		if useCache {
			// The inferred Kronecker power is part of the question;
			// resolve it from the stored metadata (no graph decode). A
			// failed lookup just falls through to the post-load keying.
			k := req.K
			if k <= 0 {
				if meta, err := st.Meta(req.DatasetID); err == nil {
					k = kronmom.KForNodes(meta.Nodes)
				}
			}
			if k > 0 {
				relKey = release.KeyFor(req.DatasetID, req.Eps, req.Delta, k, req.Seed, core.PlannedReceipt(req.Eps, req.Delta))
				haveKey = true
				lk := tr.Start(root, "release-cache-lookup")
				s.flightMu.Lock()
				handled := s.serveReleaseLocked(w, relKey)
				s.flightMu.Unlock()
				lk.SetAttr(trace.String("hit", strconv.FormatBool(handled)))
				lk.End()
				if handled {
					return
				}
			}
		}
		dsp := tr.Start(root, "dataset-load",
			trace.String("dataset_id", req.DatasetID), trace.String("source", "store"))
		g, err = st.Load(req.DatasetID)
		dsp.End()
		if err != nil {
			datasetError(w, err)
			return
		}
	} else {
		dsp := tr.Start(root, "dataset-load", trace.String("source", "inline"))
		g, err = req.graph()
		dsp.End()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	if useCache && !haveKey {
		// Inline graphs key by their content fingerprint — the same id
		// the dataset store would assign — so the identical bytes hit the
		// identical entry no matter how they arrived.
		k := req.K
		if k <= 0 {
			k = kronmom.KForNodes(g.NumNodes())
		}
		relKey = release.KeyFor(accountant.DatasetID(g), req.Eps, req.Delta, k, req.Seed, core.PlannedReceipt(req.Eps, req.Delta))
	}
	// Ledger enforcement: debit the full requested budget at admission
	// (Algorithm 1's charge schedule is data-independent, so the spend
	// is known before the job runs). The debit happens inside submit's
	// admission critical section — with a journal, under a journaled
	// per-admission idempotent spend token, so a replay after a crash
	// re-issues it without double-charging; without one, as a plain
	// debit. An exhausted account surfaces as 429 with the remaining
	// budget in the body.
	var admit func(token string) error
	var dataset string
	var planned *accountant.Receipt
	var refused *accountant.ExhaustedError
	if s.opts.Ledger != nil && method == "private" {
		dataset = req.Dataset
		if dataset == "" {
			// A stored dataset's id already is its content fingerprint;
			// inline graphs are fingerprinted here. Either way repeated
			// fits of the same bytes share one budget account.
			dataset = req.DatasetID
		}
		if dataset == "" {
			dataset = accountant.DatasetID(g)
		}
		p := core.PlannedReceipt(req.Eps, req.Delta)
		planned = &p
		admit = func(token string) error {
			var err error
			if token == "" {
				err = s.opts.Ledger.Spend(dataset, p)
			} else {
				err = s.opts.Ledger.SpendToken(dataset, p, token)
			}
			errors.As(err, &refused)
			return err
		}
	}
	fj := fitJob{
		req: req, method: method, dataset: dataset,
		relKey: relKey, useCache: useCache,
		loadGraph: func() (*graph.Graph, error) { return g, nil },
		root:      root,
	}
	fn := s.fitFn(fj)
	reqJSON, _ := json.Marshal(&req)
	traceID := TraceContextFrom(r.Context()).TraceID
	if tr != nil {
		traceID = tr.TraceID()
	}
	spec := jobSpec{
		kind:      "fit/" + method,
		request:   reqJSON,
		dataset:   dataset,
		planned:   planned,
		admit:     admit,
		fn:        fn,
		requestID: RequestIDFrom(r.Context()),
		traceID:   traceID,
		tr:        tr,
		root:      root,
	}
	var j *job
	var status int
	var msg string
	if useCache {
		// Single-flight admission: under flightMu, re-check the cache
		// and the in-flight map, then submit. The lock makes
		// miss-then-debit atomic — of N concurrent identical requests,
		// exactly one passes the ledger-debit critical section and runs;
		// the rest join its job or are served the cached result.
		fp := relKey.Fingerprint()
		inner := fn
		spec.releaseKey = &relKey
		spec.fn = func(run *pipeline.Run) (any, error) {
			// Drop the flight registration on every exit; on success the
			// Put above has already happened, so the question is always
			// answerable by either the flight map or the cache.
			defer s.forgetFlight(fp)
			return inner(run)
		}
		lk := tr.Start(root, "release-cache-lookup", trace.String("fingerprint", fp))
		s.flightMu.Lock()
		if s.serveReleaseLocked(w, relKey) {
			s.flightMu.Unlock()
			lk.SetAttr(trace.String("hit", "true"))
			lk.End()
			return
		}
		lk.SetAttr(trace.String("hit", "false"))
		lk.End()
		j, status, msg = s.submit(spec)
		if j != nil {
			s.flights[fp] = j
		}
		s.flightMu.Unlock()
	} else {
		j, status, msg = s.submit(spec)
	}
	if j == nil {
		if refused != nil {
			// Budget refusals answer with the machine-readable remaining
			// budget so clients can right-size their next request, and a
			// Retry-After suited to budgets (a raise is an operator
			// action, not a momentary spike).
			rem := refused.Remaining()
			s.rejectAdmission(r, rejectBudget, dataset, msg,
				slog.Float64("remaining_eps", rem.Eps),
				slog.Float64("remaining_delta", rem.Delta))
			setRetryAfter(w, http.StatusTooManyRequests, true)
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":     msg,
				"dataset":   dataset,
				"remaining": rem,
			})
			return
		}
		s.rejectAdmission(r, rejectReason(status), dataset, msg)
		setRetryAfter(w, status, false)
		writeError(w, status, msg)
		return
	}
	writeJSON(w, status, j.view())
}

// fitJob bundles everything a fit job's execution closure needs —
// built from the HTTP request on the admission path and from the
// journaled admission record on the replay path, so a resumed fit
// runs the identical code (same seed, same mechanisms) and lands the
// identical release.
type fitJob struct {
	// req is the FitRequest after defaulting — the form that is
	// journaled, so replay never re-derives defaults.
	req      FitRequest
	method   string
	dataset  string
	relKey   release.Key
	useCache bool
	// loadGraph defers graph materialization into the job: the HTTP
	// path closes over the already-decoded graph, replay loads from
	// the store or re-parses the recorded request — and a load failure
	// becomes a journaled job failure, never silence.
	loadGraph func() (*graph.Graph, error)
	// root is the job's root trace span (nil when tracing is off):
	// the run's accountant charges land on it as audit events, and the
	// release-cache Put gets a span under it.
	root *trace.Span
}

// fitFn builds the job closure executing the fit described by fj.
func (s *Server) fitFn(fj fitJob) func(run *pipeline.Run) (any, error) {
	return func(run *pipeline.Run) (any, error) {
		g, err := fj.loadGraph()
		if err != nil {
			return nil, err
		}
		req := fj.req
		rng := randx.New(req.Seed)
		switch fj.method {
		case "mom":
			est, err := kronmom.FitGraphCtx(run, g, req.K, kronmom.Options{Rng: rng})
			if err != nil {
				return nil, err
			}
			return FitResult{
				Method:    fj.method,
				Initiator: InitiatorJSON{est.Init.A, est.Init.B, est.Init.C},
				K:         est.K,
				Objective: &est.Objective,
			}, nil
		case "mle":
			res, err := kronfit.FitCtx(run, g, kronfit.Options{K: req.K, Rng: rng})
			if err != nil {
				return nil, err
			}
			return FitResult{
				Method:        fj.method,
				Initiator:     InitiatorJSON{res.Init.A, res.Init.B, res.Init.C},
				K:             res.K,
				LogLikelihood: &res.LogLikelihood,
			}, nil
		default: // private
			// The per-run accountant caps the run at exactly the budget
			// the ledger was debited for — a belt-and-braces guarantee
			// that no mechanism can spend beyond the admission debit.
			// Its observer turns every charge into a privacy-audit event
			// on the job's trace (a no-op observer when tracing is off).
			acc := accountant.New(nil).
				WithLimit(dp.Budget{Eps: req.Eps, Delta: req.Delta}).
				WithObserver(auditObserver(fj.root))
			res, err := core.EstimateCtx(run, g, core.Options{
				Eps: req.Eps, Delta: req.Delta, K: req.K, Rng: rng, Accountant: acc,
			})
			if err != nil {
				return nil, err
			}
			out := PrivateFitResult(res, fj.dataset)
			if fj.useCache {
				// Memoize the release itself — before Remaining is filled,
				// which reports ledger state at this moment, not part of
				// the answer. A failed Put costs future hits, not this
				// run's correctness.
				psp := fj.root.Child("release-cache-put")
				_, _ = s.opts.Releases.Put(fj.relKey, out)
				psp.End()
			}
			if s.opts.Ledger != nil && fj.dataset != "" {
				rem := s.opts.Ledger.Remaining(fj.dataset)
				out.Remaining = &rem
			}
			return out, nil
		}
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
	// the result then carries the dataset metadata, and the graph can
	// be fitted later by dataset_id instead of re-shipping edges.
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
	// Dataset is the stored dataset's metadata (store requests only);
	// Dataset.ID is directly usable as a fit request's dataset_id.
	Dataset *dataset.Meta `json:"dataset,omitempty"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.decodeError(w, r, err)
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	method := strings.ToLower(req.Method)
	if method == "" {
		method = "auto"
	}
	switch method {
	case "auto", "exact", "balldrop":
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown method %q (want auto, exact or balldrop)", req.Method))
		return
	}
	// Bound the work a generate job may pin a slot with, mirroring the
	// fit endpoint's maxGraphNodes guard: K caps the CSR allocation
	// (2^K nodes), the exact sampler additionally costs O(4^K) pair
	// draws, and target caps the dedup/result size.
	if req.K > maxGenerateK {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("k = %d exceeds the per-request cap of %d", req.K, maxGenerateK))
		return
	}
	if method == "exact" && req.K > maxExactK {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("method exact is capped at k = %d (O(4^k) pair draws); use balldrop or auto", maxExactK))
		return
	}
	switch {
	case req.Target < 0:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("target = %d is negative (0 = expected count)", req.Target))
		return
	case req.Target > maxGenerateEdges:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("target = %d exceeds the per-request cap of %d edges", req.Target, maxGenerateEdges))
		return
	case req.Target > 0 && method == "exact":
		writeError(w, http.StatusBadRequest, "target applies to ball dropping; method exact cannot honour it")
		return
	case req.Target > 0:
		method = "balldrop"
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
	tr, root := s.startJobTrace(r, "generate")
	reqJSON, _ := json.Marshal(&req)
	traceID := TraceContextFrom(r.Context()).TraceID
	if tr != nil {
		traceID = tr.TraceID()
	}
	spec := jobSpec{
		kind: "generate", request: reqJSON,
		requestID: RequestIDFrom(r.Context()), traceID: traceID,
		tr: tr, root: root,
	}
	spec.fn = func(run *pipeline.Run) (any, error) {
		rng := randx.New(req.Seed)
		if store != nil && req.OmitEdges {
			// Streaming route: nothing downstream needs the edge list in
			// memory, so spill the sample through an external sort straight
			// into the store's v2 encoder — peak residency is O(spill
			// chunk), not O(edges), and the stored bytes are bit-identical
			// to what the in-memory route would have produced for this
			// seed.
			sorter, err := extsort.NewTemp(nil, 0)
			if err != nil {
				return nil, err
			}
			defer sorter.RemoveAll()
			var es *skg.EdgeStream
			switch {
			case method == "exact":
				es, err = m.StreamExactCtx(run, rng, sorter)
			case method == "balldrop" && req.Target > 0:
				es, err = m.StreamBallDropNCtx(run, rng, req.Target, sorter)
			case method == "balldrop":
				es, err = m.StreamBallDropCtx(run, rng, sorter)
			default:
				es, err = m.StreamCtx(run, rng, sorter)
			}
			if err != nil {
				return nil, err
			}
			defer es.Close()
			meta, _, err := store.PutStream(es, req.Name, "generated")
			if err != nil {
				return nil, err
			}
			return GenerateResult{Nodes: meta.Nodes, Edges: meta.Edges, Dataset: &meta}, nil
		}
		var g *graph.Graph
		var err error
		switch {
		case method == "exact":
			g, err = m.SampleExactCtx(run, rng)
		case method == "balldrop" && req.Target > 0:
			g, err = m.SampleBallDropNCtx(run, rng, req.Target)
		case method == "balldrop":
			g, err = m.SampleBallDropCtx(run, rng)
		default:
			g, err = m.SampleCtx(run, rng)
		}
		if err != nil {
			return nil, err
		}
		res := GenerateResult{Nodes: g.NumNodes(), Edges: g.NumEdges()}
		if store != nil {
			meta, _, err := store.Put(g, req.Name, "generated")
			if err != nil {
				return nil, err
			}
			res.Dataset = &meta
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
	j, status, msg := s.submit(spec)
	if j == nil {
		s.rejectAdmission(r, rejectReason(status), "", msg)
		setRetryAfter(w, status, false)
		writeError(w, status, msg)
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
