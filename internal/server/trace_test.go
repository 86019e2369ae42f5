package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/dp"
	"dpkron/internal/faultfs"
	"dpkron/internal/graph"
	"dpkron/internal/journal"
	"dpkron/internal/obs"
	"dpkron/internal/pipeline"
	"dpkron/internal/release"
	"dpkron/internal/trace"
)

const (
	clientTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	clientSpanID      = "00f067aa0ba902b7"
	clientTraceparent = "00-" + clientTraceID + "-" + clientSpanID + "-01"
)

// getTree fetches and decodes a job's span tree.
func getTree(t *testing.T, base, id string) (*trace.Tree, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var tree trace.Tree
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	return &tree, resp.StatusCode
}

// collectSpans flattens a tree into name → nodes.
func collectSpans(tree *trace.Tree) map[string][]*trace.Node {
	byName := map[string][]*trace.Node{}
	tree.Walk(func(n *trace.Node, depth int) {
		byName[n.Name] = append(byName[n.Name], n)
	})
	return byName
}

// sumEvents sums the eps/delta attributes of every event with the
// given name anywhere in the tree, returning the count too.
func sumEvents(t *testing.T, tree *trace.Tree, name string) (eps, delta float64, count int) {
	t.Helper()
	tree.Walk(func(n *trace.Node, depth int) {
		for _, e := range n.Events {
			if e.Name != name {
				continue
			}
			count++
			for key, dst := range map[string]*float64{"eps": &eps, "delta": &delta} {
				v, err := strconv.ParseFloat(e.Attrs[key], 64)
				if err != nil {
					t.Fatalf("event %s has unparsable %s=%q", name, key, e.Attrs[key])
				}
				*dst += v
			}
		}
	})
	return eps, delta, count
}

// TestServerTraceEndToEnd runs one ledger-enforced private fit on a
// fully wired server (ledger + release cache + journal) and
// asserts the tentpole contract: the client's traceparent is adopted
// and echoed, the exported trace holds one span per algorithm1/*
// stage plus the explicit admission/journal/debit/dataset-load spans,
// and the audit events' summed ε/δ equals the job's receipt. With
// TRACE_SAMPLE_OUT set, the Chrome export is written there (CI
// uploads it as an artifact).
func TestServerTraceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	led, err := accountant.Open(filepath.Join(dir, "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdgeList(t, 8)
	g, err := graph.ReadEdgeList(strings.NewReader(edges), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := accountant.DatasetID(g)
	if err := led.SetBudget(ds, dp.Budget{Eps: 0.9, Delta: 0.05}); err != nil {
		t.Fatal(err)
	}
	cache, err := release.Open(filepath.Join(dir, "releases"))
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(filepath.Join(dir, "journal.dpkj"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	_, ts := newTestServer(t, Options{
		Workers: 2, MaxJobs: 2,
		Ledger: led, Releases: cache, Journal: jnl,
	})

	body, _ := json.Marshal(FitRequest{Method: "private", Eps: 0.4, Delta: 0.01, K: 8, Seed: 3, EdgeList: edges})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/fit", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", clientTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("traceparent"); got != clientTraceparent {
		t.Fatalf("traceparent echo = %q, want %q", got, clientTraceparent)
	}
	requestID := resp.Header.Get("X-Request-ID")
	if requestID == "" {
		t.Fatal("no X-Request-ID on response")
	}
	var accepted map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d (%v)", resp.StatusCode, accepted)
	}
	id := accepted["id"].(string)

	job := pollJob(t, ts.URL, id, 120*time.Second)
	if job["status"] != StatusDone {
		t.Fatalf("fit ended %v: %v", job["status"], job)
	}
	result := job["result"].(map[string]any)
	receipt := result["receipt"].(map[string]any)
	total := receipt["total"].(map[string]any)
	wantEps := total["eps"].(float64)
	wantDelta := total["delta"].(float64)

	tree, code := getTree(t, ts.URL, id)
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	if tree.TraceID != clientTraceID {
		t.Fatalf("trace adopted id %q, want the client's %q", tree.TraceID, clientTraceID)
	}
	if tree.RemoteParent != clientSpanID {
		t.Fatalf("remote parent = %q, want %q", tree.RemoteParent, clientSpanID)
	}

	spans := collectSpans(tree)
	// Exactly one span per algorithm1/* stage of the private pipeline.
	for _, stage := range []string{
		"algorithm1/degree-release",
		"algorithm1/feature-derivation",
		"algorithm1/triangle-release",
		"algorithm1/moment-fit",
		"algorithm1/moment-fit/kronmom",
	} {
		got := spans[stage]
		if len(got) != 1 {
			t.Fatalf("stage %q has %d spans, want 1", stage, len(got))
		}
		if got[0].Open {
			t.Fatalf("stage span %q left open", stage)
		}
		if got[0].Attrs["workers"] == "" {
			t.Fatalf("stage span %q lacks the worker-count attribute: %v", stage, got[0].Attrs)
		}
	}
	// The kronmom sub-stage nests under moment-fit.
	mf := spans["algorithm1/moment-fit"][0]
	if len(mf.Children) != 1 || mf.Children[0].Name != "algorithm1/moment-fit/kronmom" {
		t.Fatalf("moment-fit children = %+v", mf.Children)
	}
	// The explicit serving-layer spans.
	for _, name := range []string{
		"release-cache-lookup", "dataset-load", "admission",
		"journal-append", "ledger-debit", "queue-wait", "run",
		"release-cache-put",
	} {
		if len(spans[name]) == 0 {
			t.Fatalf("trace lacks a %q span; have %v", name, keys(spans))
		}
	}
	if hit := spans["release-cache-lookup"][0].Attrs["hit"]; hit != "false" {
		t.Fatalf("first fit's cache lookup hit = %q, want false", hit)
	}
	if root := tree.Spans[0]; root.Attrs["request_id"] != requestID {
		t.Fatalf("root request_id attr = %q, want %q", root.Attrs["request_id"], requestID)
	} else if root.Attrs["status"] != StatusDone || root.Open {
		t.Fatalf("root span not closed done: %+v", root.Attrs)
	}

	// Audit timeline: the in-run accountant events sum to the receipt,
	// and the admission-time ledger events sum to the same planned
	// total — one event per mechanism charge in both.
	accEps, accDelta, accN := sumEvents(t, tree, "accountant-debit")
	if accN != len(receipt["charges"].([]any)) {
		t.Fatalf("accountant-debit events = %d, want one per receipt charge (%d)", accN, len(receipt["charges"].([]any)))
	}
	if math.Abs(accEps-wantEps) > 1e-9 || math.Abs(accDelta-wantDelta) > 1e-9 {
		t.Fatalf("accountant-debit events sum to (%g, %g), receipt total is (%g, %g)", accEps, accDelta, wantEps, wantDelta)
	}
	ledEps, ledDelta, ledN := sumEvents(t, tree, "ledger-debit")
	if ledN == 0 {
		t.Fatal("no ledger-debit audit events on the admission debit span")
	}
	if math.Abs(ledEps-wantEps) > 1e-9 || math.Abs(ledDelta-wantDelta) > 1e-9 {
		t.Fatalf("ledger-debit events sum to (%g, %g), receipt total is (%g, %g)", ledEps, ledDelta, wantEps, wantDelta)
	}

	// The journaled admission carries the request/trace identity
	// (satellite: a crash-resumed job links back to its originator).
	var admitted *journal.Record
	for _, rec := range jnl.Records() {
		if rec.Job == id && rec.State == journal.StateAdmitted {
			r := rec
			admitted = &r
		}
	}
	if admitted == nil {
		t.Fatalf("no journaled admission for %s", id)
	}
	if admitted.RequestID != requestID || admitted.TraceID != clientTraceID {
		t.Fatalf("journaled admission ids = (%q, %q), want (%q, %q)",
			admitted.RequestID, admitted.TraceID, requestID, clientTraceID)
	}
	// The ledger receipt was stamped with the debit time and its token
	// cross-references the journaled admission.
	acct, ok, _ := led.Account(ds)
	if !ok || len(acct.Receipts) != 1 {
		t.Fatalf("ledger account: ok=%v receipts=%d", ok, len(acct.Receipts))
	}
	if acct.Receipts[0].Time == nil || acct.Receipts[0].Time.IsZero() {
		t.Fatalf("ledger receipt has no debit timestamp: %+v", acct.Receipts[0])
	}
	if acct.Receipts[0].Token != admitted.Token {
		t.Fatalf("receipt token %q does not match journaled token %q", acct.Receipts[0].Token, admitted.Token)
	}

	// Chrome export: valid trace-event JSON, one X event per span.
	chResp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer chResp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	raw := new(strings.Builder)
	if err := json.NewDecoder(io.TeeReader(chResp.Body, raw)).Decode(&chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var xEvents int
	for _, e := range chrome.TraceEvents {
		if e.Phase == "X" {
			xEvents++
		}
	}
	var spanCount int
	tree.Walk(func(n *trace.Node, depth int) { spanCount++ })
	if xEvents != spanCount {
		t.Fatalf("chrome export has %d complete events, tree has %d spans", xEvents, spanCount)
	}
	if out := os.Getenv("TRACE_SAMPLE_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(raw.String()), 0o644); err != nil {
			t.Fatalf("writing TRACE_SAMPLE_OUT: %v", err)
		}
	}

	// A second identical fit is a cache hit: the synthetic completed
	// job never ran here, so it has no trace, and the original's is
	// untouched.
	code2, resp2 := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
		Method: "private", Eps: 0.4, Delta: 0.01, K: 8, Seed: 3, EdgeList: edges,
	})
	if code2 != http.StatusOK {
		t.Fatalf("repeat fit: status %d (%v)", code2, resp2)
	}
	if _, code := getTree(t, ts.URL, resp2["id"].(string)); code != http.StatusNotFound {
		t.Fatalf("cache-hit job trace: status %d, want 404", code)
	}
	if again, code := getTree(t, ts.URL, id); code != http.StatusOK || len(collectSpans(again)) != len(spans) {
		t.Fatalf("original trace after a cache hit: status %d", code)
	}
}

func keys(m map[string][]*trace.Node) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestServerTraceResumeLinksOrigin synthesizes a crash after the
// admission record and restarts: the resumed job's
// trace must adopt the journaled trace id and carry the originating
// request id, linking the post-crash work to the pre-crash request.
func TestServerTraceResumeLinksOrigin(t *testing.T) {
	fx := buildCrashFixture(t)
	ad := fx.records[0]
	if ad.RequestID == "" || ad.TraceID == "" {
		t.Fatalf("fixture admission lacks request/trace ids: %+v", ad)
	}
	dir := t.TempDir()
	led, err := accountant.Open(filepath.Join(dir, "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := led.SetBudget(fx.dsID, dp.Budget{Eps: 0.9, Delta: 0.05}); err != nil {
		t.Fatal(err)
	}
	cache, err := release.Open(filepath.Join(dir, "releases"))
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(filepath.Join(dir, "journal.dpkj"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if err := jnl.Append(ad, true); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{
		Workers: 2, MaxJobs: 2,
		Ledger: led, Releases: cache, Journal: jnl,
	})
	job := pollJob(t, ts.URL, ad.Job, 120*time.Second)
	if job["status"] != StatusDone {
		t.Fatalf("resumed fit ended %v: %v", job["status"], job)
	}
	tree, code := getTree(t, ts.URL, ad.Job)
	if code != http.StatusOK {
		t.Fatalf("GET resumed trace: status %d", code)
	}
	if tree.TraceID != ad.TraceID {
		t.Fatalf("resumed trace id %q, want journaled %q", tree.TraceID, ad.TraceID)
	}
	root := tree.Spans[0]
	if root.Attrs["resumed"] != "true" || root.Attrs["request_id"] != ad.RequestID {
		t.Fatalf("resumed root attrs = %v, want resumed=true request_id=%q", root.Attrs, ad.RequestID)
	}
	if len(collectSpans(tree)["dataset-load"]) == 0 {
		t.Fatal("resumed trace lacks a dataset-load span")
	}
}

// TestServerTraceEviction covers the retention contract: a job holds
// its trace, so the trace is evicted with the job's history.
func TestServerTraceEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1, MaxHistory: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
			A: 0.9, B: 0.5, C: 0.3, K: 3, Seed: uint64(i + 1), Method: "exact",
		})
		if code != http.StatusAccepted {
			t.Fatalf("generate %d: status %d (%v)", i, code, resp)
		}
		id := resp["id"].(string)
		ids = append(ids, id)
		if job := pollJob(t, ts.URL, id, 60*time.Second); job["status"] != StatusDone {
			t.Fatalf("generate %s ended %v", id, job["status"])
		}
	}
	// History bound 1: the oldest jobs are evicted and their traces
	// with them; eviction runs in finalize, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, code := getTree(t, ts.URL, ids[0]); code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("evicted job %s still has a trace", ids[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tree, code := getTree(t, ts.URL, ids[2]); code != http.StatusOK {
		t.Fatalf("latest job trace: status %d", code)
	} else if len(tree.Spans) == 0 || tree.Spans[0].Name != "generate" {
		t.Fatalf("latest trace = %+v", tree.Spans)
	}
}

// TestStageRecordOneClock: a job's stage spans are its one stage
// record. A served private fit's stage seconds in GET /v1/jobs/{id},
// its algorithm1/* span seconds in GET /v1/jobs/{id}/trace and its
// dpkron_job_stage_seconds observations are the same numbers. A stage
// whose first event reports completion is listed with a zero-length
// span, and the stages a cancelled job leaves open are closed but
// never observed.
func TestStageRecordOneClock(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2, Metrics: obs.NewRegistry()})
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
		Method: "private", Eps: 0.4, Delta: 0.01, K: 8, Seed: 3, EdgeList: testEdgeList(t, 8),
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d (%v)", code, resp)
	}
	id := resp["id"].(string)
	job := pollJob(t, ts.URL, id, 120*time.Second)
	if job["status"] != StatusDone {
		t.Fatalf("fit ended %v: %v", job["status"], job)
	}
	tree, code := getTree(t, ts.URL, id)
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	spans := collectSpans(tree)
	metrics := scrapeMetrics(t, s.opts.Metrics)
	var compared int
	for _, raw := range job["stages"].([]any) {
		st := raw.(map[string]any)
		name := st["stage"].(string)
		if !strings.HasPrefix(name, "algorithm1/") {
			continue
		}
		secs, _ := st["seconds"].(float64) // omitted when zero
		if len(spans[name]) != 1 {
			t.Fatalf("stage %q has %d spans, want 1", name, len(spans[name]))
		}
		if span := spans[name][0].Seconds; secs != span {
			t.Errorf("stage %q: job view says %v s, its span %v s", name, secs, span)
		}
		if st["frac"] != 1.0 {
			t.Errorf("finished stage %q at frac %v", name, st["frac"])
		}
		if obsSum := metrics[`dpkron_job_stage_seconds_sum{stage="`+name+`"}`]; obsSum != secs {
			t.Errorf("stage %q: histogram observed %v s, job view says %v s", name, obsSum, secs)
		}
		compared++
	}
	if compared != 5 {
		t.Fatalf("compared %d algorithm1 stages, want 5: %v", compared, job["stages"])
	}

	// A job that reports one stage complete on its first event, then
	// blocks in a second stage until it is cancelled.
	tr := trace.New(trace.Context{})
	blocked := make(chan struct{})
	j, code, msg := s.submit(jobSpec{
		kind: "test", tr: tr, root: tr.Start(nil, "test"),
		fn: func(run *pipeline.Run) (any, error) {
			run.Progress("instant", 1)
			run.Stage("blocked")
			close(blocked)
			<-run.Context().Done()
			return nil, run.Err()
		},
	})
	if j == nil {
		t.Fatalf("submit: status %d (%s)", code, msg)
	}
	<-blocked
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.id, nil); code != http.StatusAccepted {
		t.Fatalf("DELETE job: status %d", code)
	}
	if job := pollJob(t, ts.URL, j.id, 30*time.Second); job["status"] != StatusCancelled {
		t.Fatalf("blocked job ended %v", job["status"])
	}
	v := j.view()
	if len(v.Stages) != 2 || v.Stages[0] != (trace.Stage{Name: "instant", Frac: 1}) || v.Stages[1].Name != "blocked" {
		t.Fatalf("cancelled job stages = %+v, want instant (done, 0 s) then blocked", v.Stages)
	}
	spans = collectSpans(tr.Tree())
	if in := spans["instant"]; len(in) != 1 || in[0].Open || in[0].Seconds != 0 {
		t.Fatalf("instant stage spans = %+v, want one closed zero-length span", in)
	}
	if bl := spans["blocked"]; len(bl) != 1 || bl[0].Open || bl[0].Seconds != v.Stages[1].Seconds {
		t.Fatalf("blocked stage spans = %+v, want one span closed at %v s", bl, v.Stages[1].Seconds)
	}
	metrics = scrapeMetrics(t, s.opts.Metrics)
	if n := metrics[`dpkron_job_stage_seconds_count{stage="instant"}`]; n != 1 {
		t.Errorf("instant stage observed %v times, want 1", n)
	}
	if sum := metrics[`dpkron_job_stage_seconds_sum{stage="instant"}`]; sum != 0 {
		t.Errorf("instant stage observed %v s, want 0", sum)
	}
	if n := metrics[`dpkron_job_stage_seconds_count{stage="blocked"}`]; n != 0 {
		t.Errorf("cancelled job's open stage observed %v times, want 0", n)
	}
}

// TestStageRecordJobFinishedLog: the `job finished` log record carries
// each stage's seconds from the job's stage record — the same numbers
// as the stages[].seconds of GET /v1/jobs/{id}.
func TestStageRecordJobFinishedLog(t *testing.T) {
	_, base, logs := newObsTestServer(t, Options{Workers: 2, MaxJobs: 2})
	code, resp := doJSON(t, http.MethodPost, base+"/v1/fit", FitRequest{
		Method: "private", Eps: 0.4, Delta: 0.01, K: 8, Seed: 3, EdgeList: testEdgeList(t, 8),
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d (%v)", code, resp)
	}
	id := resp["id"].(string)
	job := pollJob(t, base, id, 120*time.Second)
	if job["status"] != StatusDone {
		t.Fatalf("fit ended %v: %v", job["status"], job)
	}
	// finalize logs the record after the terminal status is visible.
	var logged map[string]any
	for deadline := time.Now().Add(10 * time.Second); logged == nil; time.Sleep(10 * time.Millisecond) {
		for _, line := range strings.Split(logs.String(), "\n") {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == "job finished" && rec["job_id"] == id {
				if logged, _ = rec["stages"].(map[string]any); logged == nil {
					t.Fatalf("job finished record without stages: %s", line)
				}
			}
		}
		if logged == nil && time.Now().After(deadline) {
			t.Fatalf("no job finished record for %s:\n%s", id, logs.String())
		}
	}
	stages := job["stages"].([]any)
	if len(stages) < 5 || len(logged) != len(stages) {
		t.Fatalf("logged stages %v, job view stages %v", logged, stages)
	}
	for _, raw := range stages {
		st := raw.(map[string]any)
		name := st["stage"].(string)
		secs, _ := st["seconds"].(float64) // omitted when zero
		if got, ok := logged[name].(float64); !ok || got != secs {
			t.Errorf("stage %q: logged %v s, job view says %v s", name, logged[name], secs)
		}
	}
}

// TestStageRecordViewJSON: the job view's stage entries keep their wire
// form — keys "stage", "frac" and "seconds", the last omitted when zero.
func TestStageRecordViewJSON(t *testing.T) {
	clock := time.Unix(0, 0)
	ss := trace.New(trace.Context{}).WithClock(func() time.Time { return clock }).StageSpans(nil)
	ss.Observe("instant", 1)
	ss.Observe("algorithm1/degree-release", 0)
	clock = clock.Add(1500 * time.Millisecond)
	ss.Observe("algorithm1/degree-release", 0.5)
	j := &job{id: "job-1", kind: "fit", status: StatusRunning, stages: ss}
	b, err := json.Marshal(j.view())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"id":"job-1","kind":"fit","status":"running","stages":[` +
		`{"stage":"instant","frac":1},` +
		`{"stage":"algorithm1/degree-release","frac":0.5,"seconds":1.5}]}`
	if string(b) != want {
		t.Fatalf("job view JSON:\n%s\nwant:\n%s", b, want)
	}
}

// TestLedgerReadsPerPrivateFit: the audit events and the result's
// remaining budget share one account read taken right after the
// debit, and on a ledger no other handle has appended to neither that
// read nor the debit reads the ledger file whole — the append-only
// ledger decodes only bytes appended since its last call — on the HTTP
// path and on the resume path alike.
func TestLedgerReadsPerPrivateFit(t *testing.T) {
	const wantReads = 0
	open := func(t *testing.T, dir, ds string) (*accountant.Ledger, *faultfs.Injector) {
		t.Helper()
		inj := faultfs.NewInjector(nil)
		led, err := accountant.OpenFS(inj, filepath.Join(dir, "ledger.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := led.SetBudget(ds, dp.Budget{Eps: 0.9, Delta: 0.05}); err != nil {
			t.Fatal(err)
		}
		return led, inj
	}
	// checkRemaining asserts the result's remaining budget is the
	// account after the one debit, matching the audit events' label.
	checkRemaining := func(t *testing.T, job map[string]any, tree *trace.Tree) {
		t.Helper()
		rem := job["result"].(map[string]any)["remaining"].(map[string]any)
		if math.Abs(rem["eps"].(float64)-0.5) > 1e-9 {
			t.Fatalf("result remaining = %v, want eps 0.5", rem)
		}
		tree.Walk(func(n *trace.Node, depth int) {
			for _, e := range n.Events {
				if e.Name == "ledger-debit" && e.Attrs["remaining_eps"] != strconv.FormatFloat(rem["eps"].(float64), 'g', 17, 64) {
					t.Errorf("ledger-debit event remaining_eps = %s, result says %v", e.Attrs["remaining_eps"], rem["eps"])
				}
			}
		})
	}

	t.Run("http", func(t *testing.T) {
		dir := t.TempDir()
		edges := testEdgeList(t, 8)
		g, err := graph.ReadEdgeList(strings.NewReader(edges), 0)
		if err != nil {
			t.Fatal(err)
		}
		led, inj := open(t, dir, accountant.DatasetID(g))
		cache, err := release.Open(filepath.Join(dir, "releases"))
		if err != nil {
			t.Fatal(err)
		}
		jnl, err := journal.Open(filepath.Join(dir, "journal.dpkj"))
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		_, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2, Ledger: led, Releases: cache, Journal: jnl})
		before := inj.Ops(faultfs.OpRead, "ledger.json")
		code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
			Method: "private", Eps: 0.4, Delta: 0.01, K: 8, Seed: 3, EdgeList: edges,
		})
		if code != http.StatusAccepted {
			t.Fatalf("POST /v1/fit: status %d (%v)", code, resp)
		}
		id := resp["id"].(string)
		job := pollJob(t, ts.URL, id, 120*time.Second)
		if job["status"] != StatusDone {
			t.Fatalf("fit ended %v: %v", job["status"], job)
		}
		tree, _ := getTree(t, ts.URL, id)
		if reads := inj.Ops(faultfs.OpRead, "ledger.json") - before; reads > wantReads {
			t.Fatalf("one admitted private fit read the whole ledger %d times, want %d", reads, wantReads)
		}
		checkRemaining(t, job, tree)
	})

	t.Run("resume", func(t *testing.T) {
		fx := buildCrashFixture(t)
		dir := t.TempDir()
		led, inj := open(t, dir, fx.dsID)
		jnl, err := journal.Open(filepath.Join(dir, "journal.dpkj"))
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		if err := jnl.Append(fx.records[0], true); err != nil {
			t.Fatal(err)
		}
		before := inj.Ops(faultfs.OpRead, "ledger.json")
		_, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2, Ledger: led, Journal: jnl})
		job := pollJob(t, ts.URL, fx.records[0].Job, 120*time.Second)
		if job["status"] != StatusDone {
			t.Fatalf("resumed fit ended %v: %v", job["status"], job)
		}
		tree, _ := getTree(t, ts.URL, fx.records[0].Job)
		if reads := inj.Ops(faultfs.OpRead, "ledger.json") - before; reads > wantReads {
			t.Fatalf("one resumed private fit read the whole ledger %d times, want %d", reads, wantReads)
		}
		checkRemaining(t, job, tree)
	})
}
