package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/graph"
	"dpkron/internal/journal"
	"dpkron/internal/kronmom"
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

const (
	fitEps   = 0.4
	fitDelta = 0.01
	// pollEvery is how often a client asks whether its job is done.
	pollEvery = 2 * time.Millisecond
	// accounts is how many ledger accounts cold fits are charged to, in
	// turn: a δ budget must stay below 1, so one account pays for at most
	// 99 fits at δ = 0.01.
	accounts = 32
	// maxJobs is `dpkron serve`'s default job-slot count; the server
	// gives each job an equal share of the worker budget.
	maxJobs = 2
	// splitOps is how many times a traced run times the two halves of
	// the triangle release on their own.
	splitOps = 2
	// traceChecks is how many measured cold fits a traced run recomputes
	// in-process; an end-to-end run recomputes one.
	traceChecks = 3
)

var initiator = skg.Initiator{A: 0.99, B: 0.45, C: 0.25}

// fitSpec is one served-fit workload.
type fitSpec struct {
	name       string
	clients    int
	minOps     int // measured requests every run sends, at least
	hitPercent int // share of requests, in percent, that repeat a question
	questions  int // questions released before measuring
	priors     int // receipts in the ledger each set-up starts from
	history    int // the server's MaxHistory
	// warmup is how many requests are served before measuring. The server
	// keeps its last history finished jobs, a cold fit's with its private
	// degree sequence, so until that many have finished the live heap
	// grows with every cold fit served. Without a warm-up the heap metric
	// is therefore taken over the first minOps measured requests, so that
	// it does not depend on how many requests a run fits in.
	warmup int
	sample func(run *pipeline.Run, rng *randx.Rand) (*graph.Graph, error)
}

// runFitDense keeps both job slots busy: two clients measure twice the
// fits one would in the same time, each job still on its own core. It
// serves no warm-up, since filling the job history would take a few
// hundred dense fits.
func runFitDense(r *runner) error {
	sz := r.cfg.Sizes
	m, err := skg.NewModel(initiator, sz.DenseK)
	if err != nil {
		return err
	}
	return runFit(r, fitSpec{
		name: "fit-dense", clients: 2, minOps: sz.DenseFits, history: sz.History,
		sample: func(run *pipeline.Run, rng *randx.Rand) (*graph.Graph, error) {
			return m.SampleBallDropNCtx(run, rng, sz.DenseEdges)
		},
	})
}

// runFitMixed measures right after the questions are released: filling
// the job history first would take about 100 more cold fits.
func runFitMixed(r *runner) error {
	sz := r.cfg.Sizes
	m, err := skg.NewModel(initiator, sz.MixedK)
	if err != nil {
		return err
	}
	return runFit(r, fitSpec{
		name: "fit-mixed", clients: 2, minOps: sz.MixedRequests, hitPercent: 60,
		questions: sz.Questions, priors: sz.PriorReceipts, history: sz.History,
		sample: m.SampleBallDropCtx,
	})
}

// runFitHits serves only repeats of the first of fit-mixed's questions.
// Among fit-mixed's requests the hits take under 1% of the wall time, so
// no fit-mixed metric would show a slower hit path; here it is all there
// is. The ledger is never consulted on a hit, so it holds no prior
// receipts. A warm-up of hits fills the job history, which takes well
// under a second.
func runFitHits(r *runner) error {
	sz := r.cfg.Sizes
	m, err := skg.NewModel(initiator, sz.MixedK)
	if err != nil {
		return err
	}
	return runFit(r, fitSpec{
		name: "fit-hits", clients: 2, minOps: 1, hitPercent: 100,
		questions: sz.HitQuestions, history: sz.History, warmup: sz.History,
		sample: m.SampleBallDropCtx,
	})
}

// fitRequest is one fit a client sends.
type fitRequest struct {
	Seed    uint64
	Account string
	// Hit marks a repeat of a question released before measuring.
	Hit bool
}

// fitPlan derives everything a fit workload sends from the run's seed:
// the graph's seed, the questions released first, and the request
// sequence, which next hands out in order.
type fitPlan struct {
	graphSeed  uint64
	questions  []fitRequest
	hitPercent int

	mu   sync.Mutex
	rng  *randx.Rand
	used map[uint64]bool
	cold int
	sent int
}

func newFitPlan(seed uint64, questions, hitPercent int) *fitPlan {
	p := &fitPlan{rng: randx.New(seed), used: map[uint64]bool{}, hitPercent: hitPercent}
	p.graphSeed = p.rng.Uint64()
	for i := 0; i < questions; i++ {
		p.questions = append(p.questions, p.fresh())
	}
	return p
}

// fresh returns a cold fit with a seed no earlier request used, charged
// to the next account in turn. The server reads seed 0 as 1, so 0 is
// never drawn.
func (p *fitPlan) fresh() fitRequest {
	for {
		s := p.rng.Uint64()
		if s != 0 && !p.used[s] {
			p.used[s] = true
			req := fitRequest{Seed: s, Account: account(p.cold)}
			p.cold++
			return req
		}
	}
}

// next returns the next request of the sequence and its position. The
// hits are spread evenly, so that the first n requests hold exactly
// ⌊n·hitPercent/100⌋ of them and every stretch of the sequence has the
// same mix; which question a hit repeats is drawn.
func (p *fitPlan) next() (int, fitRequest) {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := p.sent
	p.sent++
	if (idx+1)*p.hitPercent/100 > idx*p.hitPercent/100 {
		q := p.questions[p.rng.IntN(len(p.questions))]
		q.Hit = true
		return idx, q
	}
	return idx, p.fresh()
}

func account(i int) string { return fmt.Sprintf("bench-%02d", i%accounts) }

// fitState is one set-up of a fit workload: the dataset, the serving
// state directories and, while serving, the server and its client.
type fitState struct {
	dir  string
	dsID string
	k    int
	// answers maps each question's seed to its canonical release.
	answers map[uint64][]byte

	store  *dataset.Store
	ledger *accountant.Ledger
	cache  *release.Cache
	jnl    *journal.Journal
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

// ledgerFile is the name of a fit state's ledger.
const ledgerFile = "ledger.json"

// buildLedger writes, in a directory of its own under dir, the ledger
// every set-up of a fit workload starts from: one budget per account and
// the prior receipts, spent one at a time through the ledger. It returns
// the file's bytes. The ledger does not depend on the seed, and with 500
// receipts spending them takes seconds, so a run builds it once, before
// its set-ups.
func buildLedger(dir string, priors int) ([]byte, error) {
	tmp, err := os.MkdirTemp(dir, "dpbench-ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	path := filepath.Join(tmp, ledgerFile)
	l, err := accountant.Open(path)
	if err != nil {
		return nil, err
	}
	budget := dp.Budget{Eps: 1e6, Delta: 0.999}
	for i := 0; i < accounts; i++ {
		if err := l.SetBudget(account(i), budget); err != nil {
			return nil, err
		}
	}
	if priors > 0 {
		if err := l.SetBudget("prior", budget); err != nil {
			return nil, err
		}
		prior := core.PlannedReceipt(fitEps, 0.5/float64(priors))
		for i := 0; i < priors; i++ {
			if err := l.Spend("prior", prior); err != nil {
				return nil, err
			}
		}
	}
	return os.ReadFile(path)
}

// buildFit returns the set-up of a fit workload: the graph sampled, the
// given ledger written, and a server, whose jobs' stage events go to
// events when it is non-nil, opened on the state directories, as after a
// restart, with the graph imported as v2.
func buildFit(spec fitSpec, plan *fitPlan, ledger []byte, events *stageLog) func(dir string) (*fitState, func(), error) {
	return func(dir string) (*fitState, func(), error) {
		g, err := spec.sample(pipeline.New(nil, 0, nil), randx.New(plan.graphSeed))
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, ledgerFile), ledger, 0o644); err != nil {
			return nil, nil, err
		}
		st := &fitState{dir: dir}
		if err := st.prepare(g, spec, events); err != nil {
			st.close()
			return nil, nil, err
		}
		return st, st.close, nil
	}
}

func (st *fitState) prepare(g *graph.Graph, spec fitSpec, events *stageLog) error {
	if err := st.open(spec.history, events); err != nil {
		return err
	}
	meta, _, err := st.store.PutFormat(g, spec.name, "generated", 2)
	if err != nil {
		return err
	}
	st.dsID, st.k = meta.ID, kronmom.KForNodes(meta.Nodes)
	return nil
}

// open opens the state directories and starts a server on them,
// configured like `dpkron serve` with a store, ledger, release cache and
// journal, keeping history finished jobs. A non-nil events log receives
// every job's stage events.
func (st *fitState) open(history int, events *stageLog) error {
	var err error
	if st.store, err = dataset.Open(filepath.Join(st.dir, "datasets")); err != nil {
		return err
	}
	if st.ledger, err = accountant.Open(filepath.Join(st.dir, ledgerFile)); err != nil {
		return err
	}
	if st.cache, err = release.Open(filepath.Join(st.dir, "releases")); err != nil {
		return err
	}
	if st.jnl, err = journal.Open(filepath.Join(st.dir, "jobs.journal")); err != nil {
		return err
	}
	opts := server.Options{
		Workers: runtime.GOMAXPROCS(0), MaxJobs: maxJobs, MaxQueue: 32, MaxHistory: history,
		Ledger: st.ledger, Datasets: st.store, Releases: st.cache, Journal: st.jnl,
	}
	if events != nil {
		opts.EventLog = events.observe
	}
	st.srv = server.New(opts)
	st.ts = httptest.NewServer(st.srv.Handler())
	st.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return nil
}

// stopServing stops the server and keeps the state handles open.
func (st *fitState) stopServing() {
	if st.ts != nil {
		st.client.CloseIdleConnections()
		st.ts.Close()
		st.srv.Close()
		st.ts = nil
	}
}

func (st *fitState) close() {
	st.stopServing()
	if st.jnl != nil {
		st.jnl.Close()
		st.jnl = nil
	}
}

// releaseQuestions fits every question once through the server, keeps
// each canonical release as the answer its later hits must repeat, and
// returns the served requests.
func (st *fitState) releaseQuestions(qs []fitRequest, clients int) ([]servedOp, error) {
	st.answers = map[uint64][]byte{}
	ops := make([]servedOp, len(qs))
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(qs); i += clients {
				v, lat, err := st.fit(qs[i])
				var canon []byte
				if err == nil {
					canon, err = st.checkCold(qs[i], v)
				}
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("releasing question %d: %w", i, err)
				}
				st.answers[qs[i].Seed] = canon
				ops[i] = servedOp{idx: i, req: qs[i], jobID: v.ID, lat: lat, result: v.Result, canon: canon}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ops, first
}

// jobView is the part of the server's job JSON the client reads.
type jobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// fit sends one fit request and polls its job until it ends. It returns
// the final job view and the latency the client saw.
func (st *fitState) fit(req fitRequest) (jobView, time.Duration, error) {
	body, err := json.Marshal(fitBody(req, st.dsID))
	if err != nil {
		return jobView{}, 0, err
	}
	start := time.Now()
	v, err := st.call(http.MethodPost, "/v1/fit", body)
	for err == nil && (v.Status == server.StatusQueued || v.Status == server.StatusRunning) {
		time.Sleep(pollEvery)
		v, err = st.call(http.MethodGet, "/v1/jobs/"+v.ID, nil)
	}
	lat := time.Since(start)
	if err == nil && v.Status != server.StatusDone {
		err = fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	return v, lat, err
}

// fitBody is the request a client sends, exactly as the server records
// it after filling defaults.
func fitBody(req fitRequest, dsID string) *server.FitRequest {
	return &server.FitRequest{
		Method: "private", Eps: fitEps, Delta: fitDelta, Seed: req.Seed,
		Dataset: req.Account, DatasetID: dsID,
	}
}

func (st *fitState) call(method, path string, body []byte) (jobView, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, st.ts.URL+path, rd)
	if err != nil {
		return jobView{}, err
	}
	resp, err := st.client.Do(hr)
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobView{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return jobView{}, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return jobView{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return v, nil
}

// checkCold checks a freshly computed release and returns its canonical
// bytes.
func (st *fitState) checkCold(req fitRequest, v jobView) ([]byte, error) {
	var res server.CachedFitResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return nil, fmt.Errorf("seed %d: decoding release: %w", req.Seed, err)
	}
	switch {
	case res.Cached:
		return nil, fmt.Errorf("seed %d: a cold fit was answered from the cache", req.Seed)
	case res.Method != "private" || res.K != st.k || res.Dataset != req.Account:
		return nil, fmt.Errorf("seed %d: release for method %q, k=%d, account %q; want private, %d, %q",
			req.Seed, res.Method, res.K, res.Dataset, st.k, req.Account)
	case res.Spent == nil || math.Abs(res.Spent.Eps-fitEps) > 1e-9 || math.Abs(res.Spent.Delta-fitDelta) > 1e-12:
		return nil, fmt.Errorf("seed %d: spent %v, want (%g, %g)", req.Seed, res.Spent, fitEps, fitDelta)
	case res.Receipt == nil || len(res.Receipt.Charges) != 2 || res.Remaining == nil:
		return nil, fmt.Errorf("seed %d: release lacks its receipt or remaining budget", req.Seed)
	}
	return canonicalRelease(v.Result)
}

// checkHit checks a cache hit against the release its question got.
func (st *fitState) checkHit(req fitRequest, v jobView) error {
	var res server.CachedFitResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return fmt.Errorf("seed %d: decoding hit: %w", req.Seed, err)
	}
	if !res.Cached || res.Release == "" {
		return fmt.Errorf("seed %d: a repeated question was not answered from the cache", req.Seed)
	}
	canon, err := canonicalRelease(v.Result)
	if err != nil {
		return err
	}
	if want := st.answers[req.Seed]; !bytes.Equal(canon, want) {
		return fmt.Errorf("seed %d: hit %s differs from its release %s", req.Seed, canon, want)
	}
	return nil
}

// canonicalRelease re-encodes a fit result without the fields that
// describe how it was answered rather than what was released: the cache
// markers and the account's remaining budget.
func canonicalRelease(raw json.RawMessage) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("decoding release: %w", err)
	}
	delete(m, "cached")
	delete(m, "release")
	delete(m, "remaining")
	return json.Marshal(m)
}

// servedOp is one served request.
type servedOp struct {
	idx      int
	req      fitRequest
	jobID    string
	lat      time.Duration
	result   json.RawMessage // the served release, cold fits only
	canon    []byte          // cold fits only
	measured bool            // false for the questions and the warm-up
}

func runFit(r *runner, spec fitSpec) error {
	plan := newFitPlan(r.cfg.Seed, spec.questions, spec.hitPercent)
	start := time.Now()
	ledger, err := buildLedger(r.cfg.Dir, spec.priors)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	r.logf("ledger: %d accounts, %d prior receipts, %d KiB, built in %.3g s",
		accounts, spec.priors, len(ledger)/1024, time.Since(start).Seconds())
	keep := 1
	var events *stageLog
	if r.cfg.Trace {
		keep = 2 // one state to serve from, an identical one to replay on
		events = &stageLog{}
	}
	states, downs, err := setups(r, keep, buildFit(spec, plan, ledger, events))
	if err != nil {
		return err
	}
	defer func() {
		for _, d := range downs {
			d()
		}
	}()
	// The questions are served once, so the cache holds their releases
	// before any request repeats one.
	served := states[len(states)-1]
	questions, err := served.releaseQuestions(plan.questions, spec.clients)
	if err != nil {
		return err
	}
	var rp *fitReplay
	if r.cfg.Trace {
		// The replay's state gets the questions by replay, as it gets every
		// later request.
		states[0].stopServing()
		states[0].answers = served.answers
		rp = &fitReplay{st: states[0], events: events, lt: layerTimes{}}
		rp.replay(r, questions)
	}

	var mu sync.Mutex
	var coldLat, hitLat samples // measured latencies, ms
	var heapPeaks samples       // MiB, measured requests
	var heap *heapWatch
	var checks []servedOp // the first measured cold fits, recomputed in-process
	nChecks := 1
	if rp != nil {
		nChecks = traceChecks
	}
	var batch []servedOp  // served and not yet replayed, when tracing
	var sent atomic.Int64 // measured requests sent
	serve := func(measured bool) func(int) {
		return func(int) {
			idx, req := plan.next()
			if measured {
				sent.Add(1)
			}
			start := time.Now()
			v, lat, err := served.fit(req)
			r.op(err)
			if err != nil {
				return
			}
			var canon []byte
			if req.Hit {
				err = served.checkHit(req, v)
			} else {
				canon, err = served.checkCold(req, v)
			}
			if err != nil {
				r.mismatch("%v", err)
				return
			}
			o := servedOp{idx: idx, req: req, jobID: v.ID, lat: lat, canon: canon, measured: measured}
			if !req.Hit {
				o.result = v.Result
			}
			mu.Lock()
			defer mu.Unlock()
			if measured {
				heapPeaks.add(heap.peakSinceMiB(start))
			}
			switch {
			case !measured:
			case req.Hit:
				hitLat.add(ms(lat))
			default:
				coldLat.add(ms(lat))
			}
			if measured && !req.Hit && len(checks) < nChecks {
				checks = append(checks, o)
			}
			if rp != nil {
				batch = append(batch, o)
			}
		}
	}
	replayBatch := func() {
		if rp != nil {
			rp.replay(r, batch)
			batch = nil
		}
	}

	closedLoop(spec.clients, spec.warmup, 0, serve(false))
	replayBatch()
	heap = watchHeap()
	var elapsed time.Duration
	var alloc float64
	if rp == nil {
		alloc0 := allocatedMiB()
		elapsed = closedLoop(spec.clients, spec.minOps, r.cfg.Seconds, serve(true))
		alloc = allocatedMiB() - alloc0
	} else {
		// The traced run serves in segments of at most a second and
		// replays each segment's requests right after it. Over longer spans
		// the machine's speed drifts by more than the few milliseconds that
		// HTTP and polling add to a served fit, and a request's replayed
		// layers could then add up to more than its served latency.
		seg := min(time.Second, r.cfg.Seconds)
		for elapsed < r.cfg.Seconds || sent.Load() < int64(spec.minOps) {
			alloc0 := allocatedMiB()
			elapsed += closedLoop(spec.clients, 1, seg, serve(true))
			alloc += allocatedMiB() - alloc0
			replayBatch()
		}
	}
	heap.close()
	cold, hits := coldLat.all(), hitLat.all()
	n := len(cold) + len(hits)

	// p50_ms is the cold fits' median; fit-hits, which sends none, reports
	// its hits'.
	measured := cold
	if spec.hitPercent == 100 {
		measured = hits
	}
	r.set("p50_ms", Median(measured))
	r.set("ops_per_s", float64(n)/elapsed.Seconds())
	peaks := heapPeaks.all()
	if spec.warmup == 0 {
		peaks = peaks[:min(len(peaks), spec.minOps)]
	}
	r.set("op_peak_live_heap_mib", Median(peaks))
	r.detail("warm-up: %d requests", spec.warmup)
	if spec.hitPercent < 100 {
		r.detail("cold fits: %s ms", Summarize(cold, 90))
		r.detail("cold fits per second: %.4g", float64(len(cold))/elapsed.Seconds())
	}
	if spec.hitPercent > 0 {
		r.detail("cache hits: %s ms", Summarize(hits, 95))
	}
	if len(measured) == 0 {
		return errors.New("no request completed")
	}

	// Recompute the first measured cold fits in-process or, where there
	// are none, the first question: each must be the release Algorithm 1
	// gives for its seed.
	if len(checks) == 0 {
		checks = questions[:1]
	}
	for _, o := range checks {
		want, err := served.direct(o.req)
		r.op(err)
		if err == nil && !bytes.Equal(o.canon, want) {
			r.mismatch("seed %d (request %d): served release %s, in-process release %s", o.req.Seed, o.idx, o.canon, want)
		}
	}
	if rp == nil {
		return nil
	}
	r.set("runtime.alloc_mib_per_op", alloc/math.Max(1, float64(n)))
	served.stopServing()
	rp.finish(r)
	return nil
}

// direct computes a cold fit's canonical release in-process, on all
// cores; Algorithm 1 releases the same bits for any worker count.
func (st *fitState) direct(req fitRequest) ([]byte, error) {
	g, err := st.store.Load(st.dsID)
	if err != nil {
		return nil, err
	}
	out, err := estimate(pipeline.New(nil, 0, nil), g, req)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return canonicalRelease(raw)
}

// estimate runs Algorithm 1 for a fit request as the server's job does,
// under an accountant capped at the request's budget, and returns the
// release before the account's remaining budget is filled in.
func estimate(run *pipeline.Run, g *graph.Graph, req fitRequest) (server.FitResult, error) {
	acc := accountant.New(nil).WithLimit(dp.Budget{Eps: fitEps, Delta: fitDelta})
	res, err := core.EstimateCtx(run, g, core.Options{
		Eps: fitEps, Delta: fitDelta, Rng: randx.New(req.Seed), Accountant: acc,
	})
	if err != nil {
		return server.FitResult{}, err
	}
	return server.PrivateFitResult(res, req.Account), nil
}

// stageLog records the Algorithm 1 stage durations of every served job
// from the server's event log.
type stageLog struct {
	mu    sync.Mutex
	start map[string]time.Time
	dur   map[string]map[string]time.Duration // job id -> metric -> duration
}

// stageMetrics maps Algorithm 1's top-level stages to layer metrics.
var stageMetrics = map[string]string{
	"algorithm1/degree-release":     "core.degree_release_ms",
	"algorithm1/feature-derivation": "core.feature_derivation_ms",
	"algorithm1/triangle-release":   "core.triangle_release_ms",
	"algorithm1/moment-fit":         "core.moment_fit_ms",
}

func (l *stageLog) observe(job string, e pipeline.Event) {
	now := time.Now()
	name, ok := stageMetrics[e.Stage]
	if !ok {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.start == nil {
		l.start, l.dur = map[string]time.Time{}, map[string]map[string]time.Duration{}
	}
	key := job + " " + e.Stage
	if !e.Done() {
		l.start[key] = now
		return
	}
	if l.dur[job] == nil {
		l.dur[job] = map[string]time.Duration{}
	}
	l.dur[job][name] = now.Sub(l.start[key])
}

// fitReplay replays served requests on a second set-up of the same
// state. For each request it calls the serving layers the server called
// for it, in the server's order, and times each call; warm-up requests
// and questions are replayed too, so that both states stay the same, but
// not timed. Algorithm 1 is not rerun there: its stages are taken from
// the served job's own stage events, so a served fit's layer sum is its
// stage times plus its replayed serving layers.
type fitReplay struct {
	st     *fitState
	events *stageLog
	lt     layerTimes
	done   []replayedOp
}

type replayedOp struct {
	op  servedOp
	rep replayed
}

// replay replays a batch of served requests in sequence order.
func (p *fitReplay) replay(r *runner, batch []servedOp) {
	sort.Slice(batch, func(i, j int) bool { return batch[i].idx < batch[j].idx })
	for _, o := range batch {
		lt := p.lt
		if !o.measured {
			lt = layerTimes{}
		}
		var rep replayed
		var err error
		if o.req.Hit {
			rep, err = p.st.replayHit(o.req, lt)
		} else {
			rep, err = p.st.replayCold(o.req, o.result, lt)
		}
		r.op(err)
		if err != nil {
			continue
		}
		if want := p.st.answers[o.req.Seed]; o.req.Hit && !bytes.Equal(rep.canon, want) {
			r.mismatch("seed %d: replayed hit %s differs from its release %s", o.req.Seed, rep.canon, want)
		}
		if o.measured {
			p.done = append(p.done, replayedOp{o, rep})
		}
	}
}

// finish times the two halves of the triangle release at the job's
// worker budget, and reports the layers and what they leave
// unattributed.
func (p *fitReplay) finish(r *runner) {
	workers := runtime.GOMAXPROCS(0) / maxJobs
	if workers < 1 {
		workers = 1
	}
	r.set("core.workers", float64(workers))
	lt := p.lt
	var fitLat, fitLayers, fitLeft, fitShare, hitLat, hitLayers, hitLeft []float64
	var lookups, hits, appends, colds int
	for _, d := range p.done {
		o, rep := d.op, d.rep
		lookups += rep.lookups
		hits += rep.hits
		if o.req.Hit {
			layers := ms(rep.serving)
			hitLat = append(hitLat, ms(o.lat))
			hitLayers = append(hitLayers, layers)
			hitLeft = append(hitLeft, ms(o.lat)-layers)
			continue
		}
		colds++
		appends += rep.appends
		p.events.mu.Lock()
		stages := p.events.dur[o.jobID]
		p.events.mu.Unlock()
		if len(stages) != len(stageMetrics) {
			r.mismatch("job %s reported %d of the %d Algorithm 1 stages", o.jobID, len(stages), len(stageMetrics))
			continue
		}
		layers := ms(rep.serving)
		for name, d := range stages {
			lt.add(name, d)
			layers += ms(d)
		}
		fitLat = append(fitLat, ms(o.lat))
		fitLayers = append(fitLayers, layers)
		fitLeft = append(fitLeft, ms(o.lat)-layers)
		fitShare = append(fitShare, layers/ms(o.lat))
	}
	if colds > 0 {
		p.splitTriangleRelease(r, workers)
	}
	lt.report(r)
	if fi, err := os.Stat(p.st.ledger.Path()); err == nil {
		r.set("accountant.ledger_kib", float64(fi.Size())/1024)
	}
	if lookups > 0 {
		r.set("release.hit_ratio", float64(hits)/float64(lookups))
	}
	if colds > 0 {
		r.set("journal.appends_per_fit", float64(appends)/float64(colds))
	}
	if len(fitLat) > 0 {
		attribute(r, "fit", fitLat, fitLayers, fitLeft, 90)
		r.set("server.fit_attributed_ratio", Median(fitShare))
	}
	if len(hitLat) > 0 {
		attribute(r, "hit", hitLat, hitLayers, hitLeft, 95)
	}
}

// splitTriangleRelease times the two halves of the triangle release,
// MaxCommonNeighborsCtx and TrianglesCtx, on their own, splitOps times
// each; both depend only on the graph.
func (p *fitReplay) splitTriangleRelease(r *runner, workers int) {
	g, err := p.st.store.Load(p.st.dsID)
	r.op(err)
	if err != nil {
		return
	}
	run := pipeline.New(nil, workers, nil)
	for i := 0; i < splitOps && err == nil; i++ {
		p.lt.add("smoothsens.ls_scan_ms", timed(func() { _, err = smoothsens.MaxCommonNeighborsCtx(run, g) }))
		if err == nil {
			p.lt.add("stats.triangles_ms", timed(func() { _, err = stats.TrianglesCtx(run, g) }))
		}
	}
	r.op(err)
}

// attribute reports the served latency of one request kind beside the
// sum of its layers and what the layers leave unattributed (HTTP,
// admission, queueing and polling). A negative remainder means the
// replay does work the server does not, so it fails the run.
func attribute(r *runner, kind string, lat, layers, left []float64, tail float64) {
	d := Summarize(lat, tail)
	r.set("server."+kind+"_ms", d.P50)
	r.set("server."+kind+"_tail_ms", d.Tail)
	r.set("server."+kind+"_layers_ms", Median(layers))
	un := Median(left)
	r.set("server.unattributed_"+kind+"_ms", un)
	r.detail("served %s: %s ms; layers p50 %.4g ms; unattributed p50 %.4g ms", kind, d, Median(layers), un)
	if un < 0 {
		r.mismatch("server.unattributed_%s_ms = %.4g < 0: the replay does work the server does not", kind, un)
	}
}

// replayed is what replaying one request gives.
type replayed struct {
	serving time.Duration // serving layers, Algorithm 1's stages excluded
	canon   []byte        // hits only
	lookups int
	hits    int
	appends int
}

// replayCold replays a cold fit's serving layers: the admission lookups,
// the journaled ledger debit, the release-cache put of the served release,
// the remaining-budget read and the terminal record, as server.handleFit
// and its job do around Algorithm 1.
func (st *fitState) replayCold(req fitRequest, result json.RawMessage, lt layerTimes) (replayed, error) {
	var rep replayed
	step := func(name string, fn func() error) error {
		var err error
		d := timed(func() { err = fn() })
		lt.add(name, d)
		rep.serving += d
		return err
	}
	var out server.FitResult
	if err := json.Unmarshal(result, &out); err != nil {
		return rep, fmt.Errorf("seed %d: decoding release: %w", req.Seed, err)
	}
	// The server puts the release before it reads the remaining budget.
	out.Remaining = nil
	var meta dataset.Meta
	if err := step("dataset.meta_ms", func() (err error) { meta, err = st.store.Meta(st.dsID); return }); err != nil {
		return rep, err
	}
	planned := core.PlannedReceipt(fitEps, fitDelta)
	key := release.KeyFor(st.dsID, fitEps, fitDelta, kronmom.KForNodes(meta.Nodes), req.Seed, planned)
	lookup := func() error {
		rep.lookups++
		if _, ok := st.cache.Get(key); ok {
			return fmt.Errorf("seed %d: cold fit found in the cache", req.Seed)
		}
		return nil
	}
	if err := step("release.get_ms", lookup); err != nil {
		return rep, err
	}
	if err := step("dataset.load_ms", func() error { _, err := st.store.Load(st.dsID); return err }); err != nil {
		return rep, err
	}
	if err := step("release.get_ms", lookup); err != nil {
		return rep, err
	}
	body, err := json.Marshal(fitBody(req, st.dsID))
	if err != nil {
		return rep, err
	}
	job := "job-replay-" + obs.NewRequestID()
	token := job + "-" + obs.NewRequestID()
	appendRec := func(rec journal.Record, sync bool) error {
		rep.appends++
		name := "journal.append_async_ms"
		if sync {
			name = "journal.append_sync_ms"
		}
		return step(name, func() error { return st.jnl.Append(rec, sync) })
	}
	if err := appendRec(journal.Record{
		Job: job, State: journal.StateAdmitted, Kind: "fit/private", Request: body,
		Dataset: req.Account, Planned: &planned, Token: token, ReleaseKey: &key,
		RequestID: obs.NewRequestID(), TraceID: trace.NewTraceID(),
	}, true); err != nil {
		return rep, err
	}
	if err := step("accountant.ledger_spend_ms", func() error { return st.ledger.SpendToken(req.Account, planned, token) }); err != nil {
		return rep, err
	}
	if err := appendRec(journal.Record{Job: job, State: journal.StateDebited}, false); err != nil {
		return rep, err
	}
	if err := appendRec(journal.Record{Job: job, State: journal.StateRunning}, false); err != nil {
		return rep, err
	}
	if err := step("release.put_ms", func() error { _, err := st.cache.Put(key, out); return err }); err != nil {
		return rep, err
	}
	var rem dp.Budget
	_ = step("accountant.ledger_remaining_ms", func() error { rem = st.ledger.Remaining(req.Account); return nil })
	out.Remaining = &rem
	raw, err := json.Marshal(out)
	if err != nil {
		return rep, err
	}
	// The server appends the terminal record after the job's done status
	// is already visible to a polling client, so it is timed but left out
	// of the request's layer sum.
	rep.appends++
	lt.add("journal.append_sync_ms", timed(func() {
		err = st.jnl.Append(journal.Record{Job: job, State: journal.StateDone, Kind: "fit/private", Result: raw}, true)
	}))
	return rep, err
}

// replayHit replays a cache hit: the metadata lookup, the cache get and
// decode, and the hit's unsynced done record.
func (st *fitState) replayHit(req fitRequest, lt layerTimes) (replayed, error) {
	rep := replayed{lookups: 1}
	var meta dataset.Meta
	var err error
	d := timed(func() { meta, err = st.store.Meta(st.dsID) })
	lt.add("dataset.meta_ms", d)
	rep.serving += d
	if err != nil {
		return rep, err
	}
	key := release.KeyFor(st.dsID, fitEps, fitDelta, kronmom.KForNodes(meta.Nodes), req.Seed, core.PlannedReceipt(fitEps, fitDelta))
	var e *release.Entry
	var ok bool
	var fr server.FitResult
	d = timed(func() {
		if e, ok = st.cache.Get(key); ok {
			err = json.Unmarshal(e.Payload, &fr)
		}
	})
	lt.add("release.get_ms", d)
	rep.serving += d
	if !ok {
		return rep, fmt.Errorf("seed %d: repeated question missed the cache", req.Seed)
	}
	if err != nil {
		return rep, err
	}
	rep.hits = 1
	var raw []byte
	d = timed(func() {
		if raw, err = json.Marshal(server.CachedFitResult{FitResult: fr, Cached: true, Release: e.Fingerprint}); err == nil {
			err = st.jnl.Append(journal.Record{Job: "job-replay-" + obs.NewRequestID(), State: journal.StateDone, Kind: "fit/private", Result: raw}, false)
		}
	})
	lt.add("journal.append_async_ms", d)
	rep.serving += d
	if err != nil {
		return rep, err
	}
	rep.canon, err = canonicalRelease(raw)
	return rep, err
}
