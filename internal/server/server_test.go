package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/frame"
	"dpkron/internal/graph"
	"dpkron/internal/mmapfile"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/trace"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// pollJob polls GET /v1/jobs/{id} until the job leaves the queued and
// running states or the deadline passes.
func pollJob(t *testing.T, base, id string, deadline time.Duration) map[string]any {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		code, job := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d (%v)", id, code, job)
		}
		switch job["status"] {
		case StatusDone, StatusFailed, StatusCancelled:
			return job
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s did not finish within %v: %v", id, deadline, job)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func testEdgeList(t *testing.T, k int) string {
	t.Helper()
	m, err := skg.NewModel(skg.Initiator{A: 0.95, B: 0.55, C: 0.3}, k)
	if err != nil {
		t.Fatal(err)
	}
	g := must(m.SampleExactCtx(nil, randx.New(4)))
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestServerFitSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2})

	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
		Method: "private", Eps: 1, Delta: 0.05, K: 8, Seed: 3,
		EdgeList: testEdgeList(t, 8),
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d (%v)", code, resp)
	}
	id, _ := resp["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", resp)
	}

	job := pollJob(t, ts.URL, id, 60*time.Second)
	if job["status"] != StatusDone {
		t.Fatalf("fit job ended %v, want done: %v", job["status"], job)
	}
	result, _ := job["result"].(map[string]any)
	if result == nil {
		t.Fatalf("done job has no result: %v", job)
	}
	init, _ := result["initiator"].(map[string]any)
	if init == nil {
		t.Fatalf("result has no initiator: %v", result)
	}
	for _, f := range []string{"a", "b", "c"} {
		v, ok := init[f].(float64)
		if !ok || v < 0 || v > 1 {
			t.Errorf("initiator %s = %v, want float in [0, 1]", f, init[f])
		}
	}
	if prv, _ := result["privacy"].(map[string]any); prv == nil || prv["eps"] != 1.0 {
		t.Errorf("privacy block missing or wrong: %v", result["privacy"])
	}
	// Stage progress must have been recorded, ending with the moment fit.
	stages, _ := job["stages"].([]any)
	if len(stages) == 0 {
		t.Fatalf("no stage progress recorded: %v", job)
	}
	var names []string
	for _, st := range stages {
		m := st.(map[string]any)
		names = append(names, m["stage"].(string))
		if m["frac"].(float64) < 1 {
			t.Errorf("stage %v did not complete: frac %v", m["stage"], m["frac"])
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"algorithm1/degree-release", "algorithm1/triangle-release", "algorithm1/moment-fit"} {
		if !strings.Contains(joined, want) {
			t.Errorf("stage %q missing from progress %v", want, names)
		}
	}
}

func TestServerGenerateRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2})
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.95, B: 0.55, C: 0.3, K: 8, Seed: 3, Method: "exact",
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/generate: status %d (%v)", code, resp)
	}
	job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second)
	if job["status"] != StatusDone {
		t.Fatalf("generate job ended %v: %v", job["status"], job)
	}
	result := job["result"].(map[string]any)
	if result["nodes"].(float64) != 256 {
		t.Errorf("nodes = %v, want 256", result["nodes"])
	}
	edgeList, _ := result["edgelist"].(string)
	g, err := graph.ReadEdgeList(strings.NewReader(edgeList), 256)
	if err != nil {
		t.Fatalf("result edge list unparsable: %v", err)
	}
	if float64(g.NumEdges()) != result["edges"].(float64) {
		t.Errorf("edge list has %d edges, result says %v", g.NumEdges(), result["edges"])
	}
	// The sampled graph must equal a local sample with the same seed:
	// the job API is deterministic per request.
	m, _ := skg.NewModel(skg.Initiator{A: 0.95, B: 0.55, C: 0.3}, 8)
	want := must(m.SampleExactCtx(nil, randx.New(3)))
	if g.NumEdges() != want.NumEdges() {
		t.Errorf("server sample has %d edges, local sample %d", g.NumEdges(), want.NumEdges())
	}
}

// TestServerGenerateTarget: a generate target is either honoured or
// rejected, never silently dropped. A negative target and a target
// with method exact are 400s; under auto a target selects ball
// dropping, in memory and streamed into the store alike.
func TestServerGenerateTarget(t *testing.T) {
	_, ts := newStoreServer(t, nil)
	for name, req := range map[string]GenerateRequest{
		"negative target":    {A: 0.9, B: 0.5, C: 0.3, K: 10, Target: -1},
		"target with exact":  {A: 0.9, B: 0.5, C: 0.3, K: 10, Target: 100, Method: "exact"},
		"negative with auto": {A: 0.9, B: 0.5, C: 0.3, K: 14, Target: -5, Method: "auto"},
	} {
		if code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", name, code, resp)
		}
	}
	for _, store := range []bool{false, true} {
		code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
			A: 0.9, B: 0.5, C: 0.3, K: 14, Seed: 2, Target: 500, OmitEdges: true, Store: store,
		})
		if code != http.StatusAccepted {
			t.Fatalf("auto with target (store %v): status %d (%v)", store, code, resp)
		}
		job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second)
		if job["status"] != StatusDone {
			t.Fatalf("auto with target (store %v) ended %v: %v", store, job["status"], job)
		}
		if edges := job["result"].(map[string]any)["edges"].(float64); edges != 500 {
			t.Errorf("auto with target 500 (store %v) sampled %v edges", store, edges)
		}
	}
}

func TestServerSubmitCancel(t *testing.T) {
	// One worker and one slot: the long first job occupies the slot.
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1})

	// A big exact sample (k=13 → 67M pair flips on one goroutine) runs
	// long enough to be cancelled mid-flight.
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.99, B: 0.55, C: 0.35, K: 13, Seed: 5, Method: "exact", OmitEdges: true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	id := resp["id"].(string)

	// Wait until the job is running and has reported a stage.
	stop := time.Now().Add(30 * time.Second)
	for {
		_, job := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
		if job["status"] == StatusRunning {
			break
		}
		if job["status"] == StatusDone {
			t.Skip("machine too fast for mid-run cancellation; covered by queued-cancel below")
		}
		if time.Now().After(stop) {
			t.Fatalf("job never started: %v", job)
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, cresp := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d (%v)", code, cresp)
	}
	job := pollJob(t, ts.URL, id, 30*time.Second)
	if job["status"] != StatusCancelled {
		t.Fatalf("job ended %v, want cancelled: %v", job["status"], job)
	}
	if _, hasResult := job["result"]; hasResult {
		t.Fatalf("cancelled job must not expose a result: %v", job)
	}
}

func TestServerQueuedJobCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1})
	// Occupy the only slot.
	_, first := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.99, B: 0.55, C: 0.35, K: 13, Seed: 5, Method: "exact", OmitEdges: true,
	})
	firstID := first["id"].(string)
	// Both jobs' goroutines race for the slot, and a second job that
	// wins it finishes before its DELETE lands: wait until the first
	// holds it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		_, v := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+firstID, nil)
		if v["status"] == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never ran: %v", v)
		}
	}
	// The second job queues behind it.
	_, second := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.9, B: 0.5, C: 0.3, K: 6, Seed: 1,
	})
	secondID := second["id"].(string)

	code, resp := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+secondID, nil)
	if code != http.StatusAccepted {
		t.Fatalf("DELETE queued: status %d (%v)", code, resp)
	}
	job := pollJob(t, ts.URL, secondID, 10*time.Second)
	if job["status"] != StatusCancelled {
		t.Fatalf("queued job ended %v, want cancelled", job["status"])
	}
	// Clean up the long job so Close returns quickly.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+firstID, nil)
}

func TestServerValidationAndLimits(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1, MaxQueue: 1})

	for name, tc := range map[string]struct {
		path string
		body any
	}{
		"missing graph":   {"/v1/fit", FitRequest{Method: "mom"}},
		"bad method":      {"/v1/fit", FitRequest{Method: "bogus", EdgeList: "0 1\n"}},
		"bad initiator":   {"/v1/generate", GenerateRequest{A: 2, B: 0.5, C: 0.5, K: 5}},
		"bad k":           {"/v1/generate", GenerateRequest{A: 0.9, B: 0.5, C: 0.2, K: 0}},
		"unknown field":   {"/v1/fit", map[string]any{"nope": 1}},
		"edges+edgelist":  {"/v1/fit", FitRequest{Edges: [][2]int{{0, 1}}, EdgeList: "0 1\n"}},
		"negative nodeid": {"/v1/fit", FitRequest{Edges: [][2]int{{-1, 1}}}},
		"nodes over cap":  {"/v1/fit", FitRequest{Nodes: maxGraphNodes + 1, EdgeList: "0 1\n"}},
		"edge id over cap": {"/v1/fit", FitRequest{
			Edges: [][2]int{{maxGraphNodes + 5, 1}},
		}},
		"edgelist id over cap": {"/v1/fit", FitRequest{
			EdgeList: fmt.Sprintf("0 %d\n", maxGraphNodes+5),
		}},
		"edgelist header over cap": {"/v1/fit", FitRequest{
			EdgeList: fmt.Sprintf("# Nodes: %d\n0 1\n", maxGraphNodes+5),
		}},
		"generate k over cap": {"/v1/generate", GenerateRequest{
			A: 0.9, B: 0.5, C: 0.3, K: maxGenerateK + 1,
		}},
		"exact k over cap": {"/v1/generate", GenerateRequest{
			A: 0.9, B: 0.5, C: 0.3, K: maxExactK + 1, Method: "exact",
		}},
		"target over cap": {"/v1/generate", GenerateRequest{
			A: 0.9, B: 0.5, C: 0.3, K: 10, Target: maxGenerateEdges + 1,
		}},
	} {
		code, resp := doJSON(t, http.MethodPost, ts.URL+tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", name, code, resp)
		}
	}

	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job: status %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job: status %d, want 404", code)
	}

	// Queue bound: with MaxQueue=1, a second active job is rejected.
	_, first := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.99, B: 0.55, C: 0.35, K: 13, Seed: 5, Method: "exact", OmitEdges: true,
	})
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.9, B: 0.5, C: 0.3, K: 6,
	})
	if code != http.StatusTooManyRequests {
		t.Errorf("over-queue submission: status %d, want 429 (%v)", code, resp)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+first["id"].(string), nil)

	// The jobs listing includes everything submitted.
	code, list := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: status %d", code)
	}
	if jobs, _ := list["jobs"].([]any); len(jobs) == 0 {
		t.Errorf("jobs listing empty after submissions")
	}

	if code, _ = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: status %d", code)
	}
}

// TestServerHistoryEviction: finished jobs beyond MaxHistory are
// evicted oldest-first so a long-running server stays bounded.
func TestServerHistoryEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1, MaxHistory: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		_, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
			A: 0.9, B: 0.5, C: 0.3, K: 5, Seed: uint64(i + 1), OmitEdges: true,
		})
		id := resp["id"].(string)
		ids = append(ids, id)
		if job := pollJob(t, ts.URL, id, 30*time.Second); job["status"] != StatusDone {
			t.Fatalf("job %s ended %v", id, job["status"])
		}
	}
	// Eviction runs on finalize; the last finalize may race the final
	// poll, so allow a short settle.
	var kept int
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, list := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
		kept = len(list["jobs"].([]any))
		if kept <= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if kept > 2 {
		t.Errorf("retained %d finished jobs, want <= MaxHistory=2", kept)
	}
	// The oldest job is gone, the newest still pollable.
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Errorf("evicted job still resolvable: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[4], nil); code != http.StatusOK {
		t.Errorf("newest job not resolvable: status %d", code)
	}
}

// TestServerLedgerEnforcement: with a ledger configured, a sequence of
// private fits against one dataset is admitted while the remaining ε
// covers the request and rejected with 429 (plus a remaining-budget
// body) exactly when it no longer does.
func TestServerLedgerEnforcement(t *testing.T) {
	led, err := accountant.Open(filepath.Join(t.TempDir(), "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2, Ledger: led})

	edges := testEdgeList(t, 8)
	g, err := graph.ReadEdgeList(strings.NewReader(edges), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := accountant.DatasetID(g)

	fit := func() (int, map[string]any) {
		return doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
			Method: "private", Eps: 0.4, Delta: 0.01, K: 8, Seed: 3, EdgeList: edges,
		})
	}

	// Default-deny: no budget configured yet → immediate 429.
	code, resp := fit()
	if code != http.StatusTooManyRequests {
		t.Fatalf("fit without budget: status %d, want 429 (%v)", code, resp)
	}
	if resp["dataset"] != ds {
		t.Errorf("429 body names dataset %v, want %v", resp["dataset"], ds)
	}

	// Budget for exactly two fits of (0.4, 0.01) plus ε slack that
	// cannot cover a third.
	if err := led.SetBudget(ds, dp.Budget{Eps: 0.9, Delta: 0.05}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		code, resp = fit()
		if code != http.StatusAccepted {
			t.Fatalf("fit %d: status %d, want 202 (%v)", i, code, resp)
		}
		job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second)
		if job["status"] != StatusDone {
			t.Fatalf("fit %d ended %v: %v", i, job["status"], job)
		}
		result := job["result"].(map[string]any)
		// The finished job carries the spend receipt and the totals.
		spent, _ := result["spent"].(map[string]any)
		if spent == nil || spent["eps"].(float64) != 0.4 {
			t.Errorf("fit %d: spent = %v, want eps 0.4", i, result["spent"])
		}
		receipt, _ := result["receipt"].(map[string]any)
		if receipt == nil {
			t.Fatalf("fit %d: no receipt in result: %v", i, result)
		}
		if charges, _ := receipt["charges"].([]any); len(charges) != 2 {
			t.Errorf("fit %d: receipt has %d charges, want 2", i, len(receipt["charges"].([]any)))
		}
		if result["dataset"] != ds {
			t.Errorf("fit %d: result dataset %v, want %v", i, result["dataset"], ds)
		}
	}

	// Remaining ε is now 0.1 < 0.4: the third fit must be refused.
	code, resp = fit()
	if code != http.StatusTooManyRequests {
		t.Fatalf("third fit: status %d, want 429 (%v)", code, resp)
	}
	rem, _ := resp["remaining"].(map[string]any)
	if rem == nil {
		t.Fatalf("429 body lacks remaining budget: %v", resp)
	}
	if eps := rem["eps"].(float64); math.Abs(eps-0.1) > 1e-9 {
		t.Errorf("remaining eps = %v, want 0.1", eps)
	}

	// The budget endpoint reports the same account state.
	code, acct := doJSON(t, http.MethodGet, ts.URL+"/v1/budget/"+ds, nil)
	if code != http.StatusOK {
		t.Fatalf("GET budget: status %d (%v)", code, acct)
	}
	if spent := acct["spent"].(map[string]any); math.Abs(spent["eps"].(float64)-0.8) > 1e-9 {
		t.Errorf("budget endpoint spent = %v, want eps 0.8", acct["spent"])
	}
	if acct["receipts"].(float64) != 2 {
		t.Errorf("receipts = %v, want 2", acct["receipts"])
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/budget/ds-unknown", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown budget: status %d, want 404", code)
	}

	// Non-private fits are never charged, even over an exhausted account.
	code, resp = doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
		Method: "mom", K: 8, EdgeList: edges,
	})
	if code != http.StatusAccepted {
		t.Fatalf("mom fit with exhausted ledger: status %d, want 202 (%v)", code, resp)
	}
	if job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second); job["status"] != StatusDone {
		t.Fatalf("mom fit ended %v", job["status"])
	}

	// The spend survives the process: a reopened ledger agrees.
	led2, err := accountant.Open(led.Path())
	if err != nil {
		t.Fatal(err)
	}
	if rem := led2.Remaining(ds); math.Abs(rem.Eps-0.1) > 1e-9 {
		t.Errorf("reopened ledger remaining = %v, want eps 0.1", rem)
	}
}

// TestServerLedgerBadBudget: invalid budgets on private fits are 400s
// at the door, not failed jobs.
func TestServerLedgerBadBudget(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1})
	for name, req := range map[string]FitRequest{
		"negative eps":   {Method: "private", Eps: -1, EdgeList: "0 1\n"},
		"delta over 1":   {Method: "private", Eps: 0.5, Delta: 1.5, EdgeList: "0 1\n"},
		"negative delta": {Method: "private", Eps: 0.5, Delta: -0.1, EdgeList: "0 1\n"},
	} {
		if code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", name, code, resp)
		}
	}
}

// TestServerWorkerSplit pins the budget split rule.
func TestServerWorkerSplit(t *testing.T) {
	for _, tc := range []struct {
		workers, maxJobs, want int
	}{
		{8, 2, 4},
		{4, 4, 1},
		{1, 2, 1},
		{3, 2, 1},
	} {
		s := New(Options{Workers: tc.workers, MaxJobs: tc.maxJobs})
		if s.jobWorkers != tc.want {
			t.Errorf("workers=%d maxJobs=%d: per-job budget %d, want %d",
				tc.workers, tc.maxJobs, s.jobWorkers, tc.want)
		}
		s.Close()
	}
}

// TestServerBudgetLedgerDamage: when the ledger cannot read a stored
// dataset's receipts — a flipped byte inside its first record, which
// the server's handle has already folded — GET /v1/budget/{dataset}
// is a 500 naming the damage, not a 200 with the zero budget of a
// dataset the ledger has never seen.
func TestServerBudgetLedgerDamage(t *testing.T) {
	led, err := accountant.Open(filepath.Join(t.TempDir(), "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	st, ts := newStoreServer(t, led)
	m, _, err := st.Put(graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}), "g", "test")
	if err != nil {
		t.Fatal(err)
	}
	c := accountant.Charge{Query: "q", Mechanism: "laplace", Sensitivity: 1, Eps: 0.1}
	if err := led.SetBudget(m.ID, dp.Budget{Eps: 1, Delta: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := led.Spend(m.ID, accountant.Receipt{Policy: "sequential", Total: c.Budget(), Charges: []accountant.Charge{c}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(led.Path())
	if err != nil {
		t.Fatal(err)
	}
	data[frame.HeaderLen+5] ^= 0x20
	if err := os.WriteFile(led.Path(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/budget/"+m.ID, nil)
	if msg, _ := body["error"].(string); code != http.StatusInternalServerError || !strings.Contains(msg, "corrupt ledger") {
		t.Fatalf("GET budget over a damaged ledger: status %d, body %v; want 500 naming the damage", code, body)
	}
}

// --- Dataset store endpoints (PR 5) ---

func newStoreServer(t *testing.T, led *accountant.Ledger) (*dataset.Store, *httptest.Server) {
	t.Helper()
	st, err := dataset.Open(filepath.Join(t.TempDir(), "datasets"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2, Datasets: st, Ledger: led})
	return st, ts
}

// upload POSTs raw bytes to /v1/datasets and returns the status and
// decoded body.
func upload(t *testing.T, base string, body []byte, headers map[string]string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/datasets?name=test-graph", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding upload response: %v", err)
	}
	return resp.StatusCode, out
}

func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	if _, err := gw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServerDatasetLifecycle(t *testing.T) {
	st, ts := newStoreServer(t, nil)

	edges := testEdgeList(t, 8)
	g, err := graph.ReadEdgeList(strings.NewReader(edges), 0)
	if err != nil {
		t.Fatal(err)
	}
	wantID := accountant.DatasetID(g)

	// First import: 201 with the content-addressed metadata.
	code, meta := upload(t, ts.URL, []byte(edges), nil)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d (%v)", code, meta)
	}
	if meta["id"] != wantID {
		t.Errorf("uploaded id %v, want %v", meta["id"], wantID)
	}
	// The view carries the public node count, never the edge count or
	// the file size (a function of the edge count).
	if nodes, _ := meta["nodes"].(float64); nodes != float64(g.NumNodes()) {
		t.Errorf("meta %v does not carry the node count %d", meta, g.NumNodes())
	}
	for _, private := range []string{"edges", "bytes"} {
		if _, ok := meta[private]; ok {
			t.Errorf("upload response carries %q: %v", private, meta)
		}
	}
	if meta["source"] != "snap" || meta["name"] != "test-graph" {
		t.Errorf("meta source/name = %v/%v", meta["source"], meta["name"])
	}
	// An upload is stored in the v2 layout, which Load maps where it can.
	if meta["format"] != float64(2) {
		t.Errorf("upload stored as format %v, want 2", meta["format"])
	}
	if fi, err := st.FileInfo(wantID); err != nil || fi.Format != 2 || fi.Mmap != mmapfile.Supported {
		t.Errorf("uploaded file: %+v, %v; want v2, mmap %v", fi, err, mmapfile.Supported)
	}

	// Same bytes again: idempotent 200, same id.
	code, meta2 := upload(t, ts.URL, []byte(edges), nil)
	if code != http.StatusOK || meta2["id"] != wantID {
		t.Errorf("re-upload: status %d id %v, want 200 %v", code, meta2["id"], wantID)
	}

	// Gzipped upload of different content (sniffed, no header): 201.
	other := testEdgeList(t, 7)
	code, meta3 := upload(t, ts.URL, gzipped(t, []byte(other)), nil)
	if code != http.StatusCreated {
		t.Fatalf("gzip upload: status %d (%v)", code, meta3)
	}
	if meta3["source"] != "snap+gzip" {
		t.Errorf("gzip upload source = %v, want snap+gzip", meta3["source"])
	}
	otherID := meta3["id"].(string)

	// Listing shows both; metadata endpoint resolves each.
	code, list := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil)
	if code != http.StatusOK || len(list["datasets"].([]any)) != 2 {
		t.Fatalf("list: status %d (%v)", code, list)
	}
	code, one := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+wantID, nil)
	if code != http.StatusOK || one["id"] != wantID {
		t.Fatalf("meta: status %d (%v)", code, one)
	}

	// The store on disk holds the binary graph, bit-identical.
	back, err := st.Load(wantID)
	if err != nil || !g.Equal(back) {
		t.Fatalf("stored graph differs: %v", err)
	}

	// A stored dataset is fitted only privately: mom by id is a 400.
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
		Method: "mom", K: 8, DatasetID: wantID,
	})
	if msg, _ := resp["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "inline") {
		t.Fatalf("mom fit by id: status %d (%v), want 400 naming the rule", code, resp)
	}
	code, resp = doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
		Method: "private", K: 8, DatasetID: wantID,
	})
	if code != http.StatusAccepted {
		t.Fatalf("fit by id: status %d (%v)", code, resp)
	}
	if job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second); job["status"] != StatusDone {
		t.Fatalf("fit by id ended %v: %v", job["status"], job)
	}

	// Delete; the id then 404s on every route that takes one.
	if code, resp := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+otherID, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d (%v)", code, resp)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+otherID, nil); code != http.StatusNotFound {
		t.Errorf("meta after delete: status %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+otherID, nil); code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", code)
	}
	code, resp = doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{Method: "private", K: 8, DatasetID: otherID})
	if code != http.StatusNotFound {
		t.Errorf("fit by deleted id: status %d, want 404 (%v)", code, resp)
	}
	if msg, _ := resp["error"].(string); msg == "" {
		t.Errorf("404 body lacks JSON error: %v", resp)
	}
}

// TestServerDatasetValidation: malformed uploads and requests answer
// with typed statuses, and unknown ids 404 consistently across fit,
// dataset and budget routes (the satellite contract).
func TestServerDatasetValidation(t *testing.T) {
	led, err := accountant.Open(filepath.Join(t.TempDir(), "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newStoreServer(t, led)

	// Bad uploads are 400s with a JSON error body.
	for name, body := range map[string][]byte{
		"unparsable":   []byte("0 x\n"),
		"node-id-bomb": []byte("0 999999999\n"),
		"corrupt-dpkg": append([]byte("DPKG"), 0xff, 0xff),
		"garbage-gzip": {0x1f, 0x8b, 0x00, 0x00},
	} {
		code, resp := upload(t, ts.URL, body, nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", name, code, resp)
		}
		if msg, _ := resp["error"].(string); msg == "" {
			t.Errorf("%s: 400 body lacks JSON error: %v", name, resp)
		}
	}

	// Unknown dataset ids: 404 JSON on fit, dataset and budget routes.
	const ghost = "ds-00112233445566ff"
	for name, probe := range map[string]func() (int, map[string]any){
		"fit": func() (int, map[string]any) {
			return doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{Method: "private", DatasetID: ghost})
		},
		"meta":   func() (int, map[string]any) { return doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+ghost, nil) },
		"delete": func() (int, map[string]any) { return doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+ghost, nil) },
		"budget": func() (int, map[string]any) { return doJSON(t, http.MethodGet, ts.URL+"/v1/budget/"+ghost, nil) },
	} {
		code, resp := probe()
		if code != http.StatusNotFound {
			t.Errorf("%s with unknown id: status %d, want 404 (%v)", name, code, resp)
		}
		if msg, _ := resp["error"].(string); msg == "" {
			t.Errorf("%s: 404 body lacks JSON error: %v", name, resp)
		}
	}

	// A stored dataset with no ledger account reports its default-deny
	// zero budget instead of 404 (it is a known dataset).
	code, meta := upload(t, ts.URL, []byte(testEdgeList(t, 7)), nil)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	code, acct := doJSON(t, http.MethodGet, ts.URL+"/v1/budget/"+meta["id"].(string), nil)
	if code != http.StatusOK {
		t.Fatalf("budget of stored-but-unbudgeted dataset: status %d (%v)", code, acct)
	}
	if rem := acct["remaining"].(map[string]any); rem["eps"].(float64) != 0 {
		t.Errorf("unbudgeted remaining = %v, want 0", acct["remaining"])
	}

	// Mixing inline and stored forms is a 400.
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
		Method: "mom", DatasetID: meta["id"].(string), EdgeList: "0 1\n",
	})
	if code != http.StatusBadRequest {
		t.Errorf("dataset_id+edgelist: status %d, want 400 (%v)", code, resp)
	}
}

// TestServerDatasetUploadGzipBomb: MaxUploadBytes bounds the
// decompressed upload, not just the wire bytes, so a tiny gzipped
// body that expands past the cap is a 413 instead of an OOM.
func TestServerDatasetUploadGzipBomb(t *testing.T) {
	st, err := dataset.Open(filepath.Join(t.TempDir(), "datasets"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1, Datasets: st, MaxUploadBytes: 64 << 10})

	// A megabyte of repeated edges gzips to ~1 KiB: under the 64 KiB
	// wire cap, 16x over it decompressed.
	bomb := gzipped(t, bytes.Repeat([]byte("0 1\n"), 1<<18))
	if int64(len(bomb)) >= 64<<10 {
		t.Fatalf("bomb failed to compress under the wire cap (%d bytes)", len(bomb))
	}
	code, resp := upload(t, ts.URL, bomb, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb upload: status %d, want 413 (%v)", code, resp)
	}
	if msg, _ := resp["error"].(string); msg == "" {
		t.Errorf("413 body lacks JSON error: %v", resp)
	}

	// An upload that fits both caps still lands.
	if code, resp := upload(t, ts.URL, gzipped(t, []byte(testEdgeList(t, 7))), nil); code != http.StatusCreated {
		t.Fatalf("in-cap gzip upload: status %d (%v)", code, resp)
	}
}

// TestServerGzipJSONBodyOverCap: a gzipped inline body that expands
// past the 64 MiB JSON cap is named as over-cap, not misreported as
// invalid JSON.
func TestServerGzipJSONBodyOverCap(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1})

	// 65 MiB of JSON whitespace (> maxBodyBytes) gzips to ~65 KiB.
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	pad := bytes.Repeat([]byte(" "), 1<<20)
	for i := 0; i < 65; i++ {
		if _, err := gw.Write(pad); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := gw.Write([]byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/fit", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap gzip body: status %d, want 413 (%v)", resp.StatusCode, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "decompresses past") {
		t.Errorf("over-cap gzip body error %q does not name the limit", msg)
	}
}

// TestServerDatasetRoutesWithoutStore: a server started without a
// store answers 404 on the dataset surface.
func TestServerDatasetRoutesWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1})
	if code, _ := upload(t, ts.URL, []byte("0 1\n"), nil); code != http.StatusNotFound {
		t.Errorf("upload without store: status %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil); code != http.StatusNotFound {
		t.Errorf("list without store: status %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{Method: "private", DatasetID: "ds-0011223344556677"}); code != http.StatusNotFound {
		t.Errorf("fit by id without store: status %d, want 404", code)
	}
	// The by-id rule does not depend on a store being configured.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{Method: "mom", DatasetID: "ds-0011223344556677"}); code != http.StatusBadRequest {
		t.Errorf("mom fit by id without store: status %d, want 400", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{A: 0.9, B: 0.5, C: 0.3, K: 5, Store: true}); code != http.StatusNotFound {
		t.Errorf("generate-into-store without store: status %d, want 404", code)
	}
}

// TestServerGenerateIntoStore: a generate job can persist its sample
// as a dataset, and the returned id immediately works for a private
// fit by id.
func TestServerGenerateIntoStore(t *testing.T) {
	st, ts := newStoreServer(t, nil)
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.95, B: 0.55, C: 0.3, K: 8, Seed: 3, Method: "exact", Store: true, Name: "synthetic-8", OmitEdges: true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("generate: status %d (%v)", code, resp)
	}
	job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second)
	if job["status"] != StatusDone {
		t.Fatalf("generate ended %v: %v", job["status"], job)
	}
	result := job["result"].(map[string]any)
	ds, _ := result["dataset"].(map[string]any)
	if ds == nil {
		t.Fatalf("result lacks dataset metadata: %v", result)
	}
	id := ds["id"].(string)
	if ds["name"] != "synthetic-8" || ds["source"] != "generated" {
		t.Errorf("stored meta name/source = %v/%v", ds["name"], ds["source"])
	}
	for _, private := range []string{"edges", "bytes"} {
		if _, ok := ds[private]; ok {
			t.Errorf("result dataset view carries %q: %v", private, ds)
		}
	}
	if _, hasEdges := result["edgelist"]; hasEdges {
		t.Errorf("omit_edges ignored: %v", result)
	}
	// The stored sample equals a local sample with the same seed.
	m, _ := skg.NewModel(skg.Initiator{A: 0.95, B: 0.55, C: 0.3}, 8)
	want := must(m.SampleExactCtx(nil, randx.New(3)))
	back, err := st.Load(id)
	if err != nil || !want.Equal(back) {
		t.Fatalf("stored sample differs from local sample: %v", err)
	}
	// Round trip: fit the stored dataset privately by id.
	code, resp = doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{Method: "private", K: 8, DatasetID: id})
	if code != http.StatusAccepted {
		t.Fatalf("fit stored sample: status %d (%v)", code, resp)
	}
	if job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second); job["status"] != StatusDone {
		t.Fatalf("fit stored sample ended %v", job["status"])
	}
}

// TestServerGenerateStoreRoutesAgree: generate-to-store always streams
// the sample into the store, with or without omit_edges. Both requests
// store the same DPKG v2 file, byte for byte, and it is the file the
// store writes for the in-memory sample of the same seed. The edge list
// a store request returns, read back from the stored file, is the one a
// no-store request returns.
func TestServerGenerateStoreRoutesAgree(t *testing.T) {
	req := GenerateRequest{A: 0.95, B: 0.55, C: 0.3, K: 10, Seed: 3, Name: "routes"}
	generate := func(t *testing.T, ts *httptest.Server, req GenerateRequest) map[string]any {
		t.Helper()
		code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", req)
		if code != http.StatusAccepted {
			t.Fatalf("store=%v omit_edges=%v: status %d (%v)", req.Store, req.OmitEdges, code, resp)
		}
		job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second)
		if job["status"] != StatusDone {
			t.Fatalf("store=%v omit_edges=%v: generate ended %v: %v", req.Store, req.OmitEdges, job["status"], job)
		}
		return job["result"].(map[string]any)
	}
	stored := map[bool][]byte{}
	var storedEdges any
	for _, omit := range []bool{false, true} {
		st, ts := newStoreServer(t, nil)
		r := req
		r.Store, r.OmitEdges = true, omit
		res := generate(t, ts, r)
		ds := res["dataset"].(map[string]any)
		if ds["format"] != float64(2) {
			t.Errorf("omit_edges=%v: format %v, want 2", omit, ds["format"])
		}
		raw, err := os.ReadFile(filepath.Join(st.Dir(), ds["id"].(string)+".dpkg"))
		if err != nil {
			t.Fatal(err)
		}
		stored[omit] = raw
		if !omit {
			storedEdges = res["edgelist"]
		}
	}
	if !bytes.Equal(stored[false], stored[true]) {
		t.Fatalf("omit_edges=false stored %d B, omit_edges=true %d B: files differ", len(stored[false]), len(stored[true]))
	}

	m, err := skg.NewModel(skg.Initiator{A: req.A, B: req.B, C: req.C}, req.K)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := st.Put(must(m.SampleCtx(nil, randx.New(req.Seed))), req.Name, "generated")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(st.Dir(), meta.ID+".dpkg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored[true], raw) {
		t.Fatalf("streamed route stored %d B, the in-memory sample %d B: files differ", len(stored[true]), len(raw))
	}

	_, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2})
	plain := generate(t, ts, req)
	if s, ok := storedEdges.(string); !ok || s == "" || s != plain["edgelist"] {
		t.Fatalf("a store request returned a different edge list than a no-store request for seed %d", req.Seed)
	}
}

// TestServerInlineGzipBody: inline JSON job bodies are transparently
// gunzipped, via the Content-Encoding header or the sniffed magic.
func TestServerInlineGzipBody(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2})
	body, err := json.Marshal(FitRequest{Method: "mom", K: 8, EdgeList: testEdgeList(t, 8)})
	if err != nil {
		t.Fatal(err)
	}
	for name, headers := range map[string]map[string]string{
		"content-encoding": {"Content-Encoding": "gzip"},
		"sniffed":          {},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/fit", bytes.NewReader(gzipped(t, body)))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d (%v)", name, resp.StatusCode, out)
		}
		if job := pollJob(t, ts.URL, out["id"].(string), 60*time.Second); job["status"] != StatusDone {
			t.Fatalf("%s: gzipped fit ended %v", name, job["status"])
		}
	}
}

// TestServerFitByIDWithLedger is the PR 5 acceptance sequence: import
// once over HTTP, fit twice by dataset id against one ledger, and hit
// 429 with the remaining budget exactly when the account runs dry.
func TestServerFitByIDWithLedger(t *testing.T) {
	led, err := accountant.Open(filepath.Join(t.TempDir(), "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newStoreServer(t, led)

	// Register the dataset once (gzipped upload for good measure).
	code, meta := upload(t, ts.URL, gzipped(t, []byte(testEdgeList(t, 8))), map[string]string{"Content-Encoding": "gzip"})
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d (%v)", code, meta)
	}
	id := meta["id"].(string)

	fitByID := func() (int, map[string]any) {
		return doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
			Method: "private", Eps: 0.4, Delta: 0.01, K: 8, Seed: 3, DatasetID: id,
		})
	}

	// Default-deny before any budget exists.
	if code, resp := fitByID(); code != http.StatusTooManyRequests {
		t.Fatalf("fit without budget: status %d, want 429 (%v)", code, resp)
	}

	// Budget for exactly two (0.4, 0.01) fits; debits key to the
	// stored dataset id — no separate fingerprint account.
	if err := led.SetBudget(id, dp.Budget{Eps: 0.9, Delta: 0.05}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		code, resp := fitByID()
		if code != http.StatusAccepted {
			t.Fatalf("fit %d: status %d, want 202 (%v)", i, code, resp)
		}
		job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second)
		if job["status"] != StatusDone {
			t.Fatalf("fit %d ended %v: %v", i, job["status"], job)
		}
		result := job["result"].(map[string]any)
		if result["dataset"] != id {
			t.Errorf("fit %d charged dataset %v, want %v", i, result["dataset"], id)
		}
	}

	// Third fit refused: 429 naming the dataset and the remainder.
	code, resp := fitByID()
	if code != http.StatusTooManyRequests {
		t.Fatalf("third fit: status %d, want 429 (%v)", code, resp)
	}
	if resp["dataset"] != id {
		t.Errorf("429 names dataset %v, want %v", resp["dataset"], id)
	}
	rem := resp["remaining"].(map[string]any)
	if eps := rem["eps"].(float64); math.Abs(eps-0.1) > 1e-9 {
		t.Errorf("remaining eps = %v, want 0.1", eps)
	}

	// The budget endpoint agrees, keyed by the same id.
	code, acct := doJSON(t, http.MethodGet, ts.URL+"/v1/budget/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET budget: status %d", code)
	}
	if spent := acct["spent"].(map[string]any); math.Abs(spent["eps"].(float64)-0.8) > 1e-9 {
		t.Errorf("spent = %v, want eps 0.8", acct["spent"])
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

// TestServerJobPanicFailsOnlyThatJob: a job whose fn panics inside a
// kernel worker of parallel.RunIndexed ends failed, the panic and the
// worker's stack are logged at error level, /healthz still answers 200
// and the next job completes.
func TestServerJobPanicFailsOnlyThatJob(t *testing.T) {
	s, base, logs := newObsTestServer(t, Options{Workers: 2, MaxJobs: 1})
	submit := func(fn func(run *pipeline.Run) (any, error)) string {
		t.Helper()
		tr := trace.New(trace.Context{})
		j, code, err := s.submit(jobSpec{kind: "test", tr: tr, root: tr.Start(nil, "test"), fn: fn})
		if j == nil {
			t.Fatalf("submit: status %d (%v)", code, err)
		}
		return j.id
	}
	id := submit(func(run *pipeline.Run) (any, error) {
		err := parallel.RunIndexed(run.Context(), 2, 64, func(_, shard int) {
			if shard == 5 {
				explodeInKernel()
			}
		})
		return "unreachable", err
	})
	job := pollJob(t, base, id, 30*time.Second)
	if job["status"] != StatusFailed || !strings.Contains(fmt.Sprint(job["error"]), "kernel exploded") {
		t.Fatalf("panicking job ended %v: %v", job["status"], job)
	}
	if code, _ := doJSON(t, http.MethodGet, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz after a job panic: status %d", code)
	}
	var logged map[string]any
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, `"job panicked"`) {
			if err := json.Unmarshal([]byte(line), &logged); err != nil {
				t.Fatal(err)
			}
		}
	}
	if logged["level"] != "ERROR" || logged["job_id"] != id || !strings.Contains(fmt.Sprint(logged["stack"]), "explodeInKernel") {
		t.Fatalf("job panic log record = %v", logged)
	}
	next := submit(func(run *pipeline.Run) (any, error) {
		return "ok", parallel.Run(run.Context(), 2, 64, func(int) {})
	})
	if job := pollJob(t, base, next, 30*time.Second); job["status"] != StatusDone {
		t.Fatalf("job after the panic ended %v: %v", job["status"], job)
	}
}

//go:noinline
func explodeInKernel() { panic("kernel exploded") }
