package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/dp"
	"dpkron/internal/faultfs"
	"dpkron/internal/graph"
	"dpkron/internal/journal"
	"dpkron/internal/release"
)

// doJSONHeaders is doJSON plus the response headers, for tests that
// assert Retry-After.
func doJSONHeaders(t *testing.T, method, url string, body any) (int, map[string]any, http.Header) {
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
	return resp.StatusCode, out, resp.Header
}

// crashFixture is one private fit run to completion on a fully wired
// server (ledger + release cache + journal), with everything a crash
// test needs to rebuild the moment of any transition: the real journal
// records the admission path wrote, the ledger bytes after the debit,
// and the byte-exact release the fit produced.
type crashFixture struct {
	records     []journal.Record // admitted, debited, running, done
	edges       string
	dsID        string
	key         release.Key
	wantPayload []byte // release payload as cached by the first life
	ledgerBytes []byte // ledger.json after the admission debit
}

func (fx *crashFixture) fitRequest() FitRequest {
	return FitRequest{Method: "private", Eps: 0.4, Delta: 0.01, K: 8, Seed: 3, EdgeList: fx.edges}
}

func buildCrashFixture(t *testing.T) *crashFixture {
	t.Helper()
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
	s := New(Options{Workers: 2, MaxJobs: 2, Ledger: led, Releases: cache, Journal: jnl})
	ts := httptest.NewServer(s.Handler())
	fx := &crashFixture{edges: edges, dsID: ds}
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", fx.fitRequest())
	if code != http.StatusAccepted {
		t.Fatalf("fixture fit: status %d (%v)", code, resp)
	}
	if job := pollJob(t, ts.URL, resp["id"].(string), 120*time.Second); job["status"] != StatusDone {
		t.Fatalf("fixture fit ended %v: %v", job["status"], job)
	}
	ts.Close()
	s.Close()
	fx.records = jnl.Records()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	// The admission path writes exactly these four transitions for one
	// clean fit; the crash tests below replay their prefixes.
	wantStates := []string{journal.StateAdmitted, journal.StateDebited, journal.StateRunning, journal.StateDone}
	if len(fx.records) != len(wantStates) {
		t.Fatalf("fixture journal holds %d records, want %d: %+v", len(fx.records), len(wantStates), fx.records)
	}
	for i, want := range wantStates {
		if fx.records[i].State != want {
			t.Fatalf("fixture record %d is %q, want %q", i, fx.records[i].State, want)
		}
	}
	ad := fx.records[0]
	if ad.ReleaseKey == nil || ad.Planned == nil || ad.Token == "" || ad.Dataset != ds {
		t.Fatalf("admission record lacks replay payload: %+v", ad)
	}
	fx.key = *ad.ReleaseKey
	e, ok := cache.Get(fx.key)
	if !ok {
		t.Fatal("fixture fit left no release in the cache")
	}
	fx.wantPayload = append([]byte(nil), e.Payload...)
	fx.ledgerBytes, err = os.ReadFile(led.Path())
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// lifeB is a server restarted over a synthesized crash state.
type lifeB struct {
	s     *Server
	ts    *httptest.Server
	led   *accountant.Ledger
	cache *release.Cache
	jnl   *journal.Journal
}

// restart builds the state directory a crash at a given point would
// leave — the first `prefix` journal records, the ledger with or
// without the landed debit, the cache with or without the finished
// release — and starts a fresh server over it.
func (fx *crashFixture) restart(t *testing.T, prefix int, debitLanded, cachePrimed bool) *lifeB {
	t.Helper()
	dir := t.TempDir()
	ledPath := filepath.Join(dir, "ledger.json")
	if debitLanded {
		if err := os.WriteFile(ledPath, fx.ledgerBytes, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	led, err := accountant.Open(ledPath)
	if err != nil {
		t.Fatal(err)
	}
	if !debitLanded {
		if err := led.SetBudget(fx.dsID, dp.Budget{Eps: 0.9, Delta: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := release.Open(filepath.Join(dir, "releases"))
	if err != nil {
		t.Fatal(err)
	}
	if cachePrimed {
		if _, err := cache.Put(fx.key, json.RawMessage(fx.wantPayload)); err != nil {
			t.Fatal(err)
		}
	}
	jnl, err := journal.Open(filepath.Join(dir, "journal.dpkj"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range fx.records[:prefix] {
		if err := jnl.Append(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Options{Workers: 2, MaxJobs: 2, Ledger: led, Releases: cache, Journal: jnl})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		jnl.Close()
	})
	return &lifeB{s: s, ts: ts, led: led, cache: cache, jnl: jnl}
}

// waitJournalTerminal polls the journal until job reaches a terminal
// state (the terminal append may trail the HTTP-visible status by a
// moment) and returns its folded state.
func waitJournalTerminal(t *testing.T, jnl *journal.Journal, job string) *journal.JobState {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, st := range journal.Reduce(jnl.Records()) {
			if st.Job == job && st.Terminal() {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a journaled terminal state", job)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerCrashPointResume replays a crash at every transition of a
// debit-bearing private fit and asserts the serving invariant at each:
// the restarted server resumes the job, exactly one ledger debit exists
// no matter where the crash fell, and the resumed fit lands the
// byte-identical release (deterministic re-execution from the recorded
// seed).
func TestServerCrashPointResume(t *testing.T) {
	fx := buildCrashFixture(t)
	for _, tc := range []struct {
		name        string
		prefix      int // journal records surviving the crash
		debitLanded bool
		cachePrimed bool
	}{
		// Crash after the fsynced admission record, before the ledger
		// debit: resume issues the one real debit.
		{"admitted-before-debit", 1, false, false},
		// Crash after the debit landed but before the (async) debited
		// record: the journaled token makes the resume debit a no-op.
		{"debit-landed-before-debited-record", 1, true, false},
		// Crash after the debited record.
		{"debited", 2, true, false},
		// Crash mid-run.
		{"running", 3, true, false},
		// Crash after the release-cache Put but before the done record:
		// the paid-for work is served from the cache, never recomputed.
		{"cache-put-before-done-record", 3, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lb := fx.restart(t, tc.prefix, tc.debitLanded, tc.cachePrimed)
			if tc.cachePrimed {
				// Cache-first resume happens synchronously in New: the job
				// is already done before the server takes its first request.
				code, job := doJSON(t, http.MethodGet, lb.ts.URL+"/v1/jobs/job-1", nil)
				if code != http.StatusOK || job["status"] != StatusDone {
					t.Fatalf("cache-primed resume: job-1 = %d %v, want immediate done", code, job)
				}
			}
			job := pollJob(t, lb.ts.URL, "job-1", 120*time.Second)
			if job["status"] != StatusDone {
				t.Fatalf("resumed job ended %v: %v", job["status"], job)
			}
			// Exactly one debit, wherever the crash fell.
			code, acct := doJSON(t, http.MethodGet, lb.ts.URL+"/v1/budget/"+fx.dsID, nil)
			if code != http.StatusOK {
				t.Fatalf("GET budget: status %d (%v)", code, acct)
			}
			if n := acct["receipts"].(float64); n != 1 {
				t.Fatalf("%v receipts after resume, want exactly 1", n)
			}
			if rem := acct["remaining"].(map[string]any); math.Abs(rem["eps"].(float64)-0.5) > 1e-9 {
				t.Errorf("remaining eps = %v, want 0.5", rem["eps"])
			}
			// Byte-identical release under the identical fingerprint.
			e, ok := lb.cache.Get(fx.key)
			if !ok {
				t.Fatal("resumed fit left no release in the cache")
			}
			if !bytes.Equal(e.Payload, fx.wantPayload) {
				t.Errorf("resumed release differs from the original:\n got %s\nwant %s", e.Payload, fx.wantPayload)
			}
			// The journal closed the job.
			if st := waitJournalTerminal(t, lb.jnl, "job-1"); st.State != journal.StateDone {
				t.Errorf("journal closed job-1 as %q, want done", st.State)
			}
		})
	}
}

// TestServerResumeAgainstExhaustedBudget: a landed debit must resume
// even when the account has nothing left — the token check precedes the
// exhaustion check, so a provably paid-for fit is never refused its own
// charge.
func TestServerResumeAgainstExhaustedBudget(t *testing.T) {
	fx := buildCrashFixture(t)
	dir := t.TempDir()
	led, err := accountant.Open(filepath.Join(dir, "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Budget exactly covering the one fit; after the landed debit the
	// account is exhausted.
	if err := led.SetBudget(fx.dsID, dp.Budget{Eps: 0.4, Delta: 0.01}); err != nil {
		t.Fatal(err)
	}
	ad := fx.records[0]
	if err := led.SpendToken(fx.dsID, *ad.Planned, ad.Token); err != nil {
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
	for _, rec := range fx.records[:2] { // admitted + debited
		if err := jnl.Append(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Options{Workers: 2, MaxJobs: 2, Ledger: led, Releases: cache, Journal: jnl})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close(); jnl.Close() }()

	job := pollJob(t, ts.URL, "job-1", 120*time.Second)
	if job["status"] != StatusDone {
		t.Fatalf("resume against exhausted budget ended %v: %v", job["status"], job)
	}
	code, acct := doJSON(t, http.MethodGet, ts.URL+"/v1/budget/"+fx.dsID, nil)
	if code != http.StatusOK {
		t.Fatalf("GET budget: status %d", code)
	}
	if n := acct["receipts"].(float64); n != 1 {
		t.Fatalf("%v receipts, want exactly 1", n)
	}
	if rem := acct["remaining"].(map[string]any); rem["eps"].(float64) != 0 {
		t.Errorf("remaining eps = %v, want 0", rem["eps"])
	}
}

// TestServerResumeCoalescesIdenticalFit: after a restart, an identical
// request arriving while the resumed fit runs joins its flight (or is
// served the finished cache entry) — never a second debit.
func TestServerResumeCoalescesIdenticalFit(t *testing.T) {
	fx := buildCrashFixture(t)
	lb := fx.restart(t, 2, true, false)
	code, resp := doJSON(t, http.MethodPost, lb.ts.URL+"/v1/fit", fx.fitRequest())
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("identical fit during resume: status %d (%v)", code, resp)
	}
	if resp["id"] != "job-1" {
		// Not coalesced into the resumed flight — acceptable only because
		// the flight already finished and the cache served it.
		result, _ := resp["result"].(map[string]any)
		if result == nil || result["cached"] != true {
			t.Fatalf("identical fit neither joined the resumed flight nor hit the cache: %v", resp)
		}
	}
	if job := pollJob(t, lb.ts.URL, "job-1", 120*time.Second); job["status"] != StatusDone {
		t.Fatalf("resumed job ended %v", job["status"])
	}
	_, acct := doJSON(t, http.MethodGet, lb.ts.URL+"/v1/budget/"+fx.dsID, nil)
	if n := acct["receipts"].(float64); n != 1 {
		t.Fatalf("%v receipts after coalesced resume, want exactly 1", n)
	}
}

// TestServerJobHistoryAcrossRestart: journaled terminal jobs answer
// GET /v1/jobs/{id} across restarts with their retained result, the id
// counter resumes past them, and the finished question serves from the
// cache without a new debit.
func TestServerJobHistoryAcrossRestart(t *testing.T) {
	fx := buildCrashFixture(t)
	lb := fx.restart(t, len(fx.records), true, true)
	code, job := doJSON(t, http.MethodGet, lb.ts.URL+"/v1/jobs/job-1", nil)
	if code != http.StatusOK || job["status"] != StatusDone {
		t.Fatalf("job-1 across restart: %d %v, want 200 done", code, job)
	}
	result, _ := job["result"].(map[string]any)
	if result == nil {
		t.Fatalf("restart dropped the retained result: %v", job)
	}
	if init, _ := result["initiator"].(map[string]any); init == nil {
		t.Errorf("retained result lacks the initiator: %v", result)
	}
	// The same question again: a cache hit under a fresh id past the
	// journaled one, with the receipt count untouched.
	code, resp := doJSON(t, http.MethodPost, lb.ts.URL+"/v1/fit", fx.fitRequest())
	if code != http.StatusOK {
		t.Fatalf("refit after restart: status %d (%v)", code, resp)
	}
	if hit, _ := resp["result"].(map[string]any); hit == nil || hit["cached"] != true {
		t.Fatalf("refit after restart was not a cache hit: %v", resp)
	}
	if resp["id"] == "job-1" {
		t.Fatalf("restart reused a journaled job id")
	}
	_, acct := doJSON(t, http.MethodGet, lb.ts.URL+"/v1/budget/"+fx.dsID, nil)
	if n := acct["receipts"].(float64); n != 1 {
		t.Fatalf("%v receipts after restart + cache hit, want 1", n)
	}
}

// TestServerResumeBudgetRefusal: when the admission debit provably
// never landed and the budget is gone by restart, the job is closed
// with an explicit journaled failure — the "never silence" arm.
func TestServerResumeBudgetRefusal(t *testing.T) {
	dir := t.TempDir()
	edges := testEdgeList(t, 8)
	g, err := graph.ReadEdgeList(strings.NewReader(edges), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := accountant.DatasetID(g)
	req := FitRequest{Method: "private", Eps: 0.4, Delta: 0.01, K: 8, Seed: 3, EdgeList: edges}
	reqJSON, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	planned := core.PlannedReceipt(req.Eps, req.Delta)
	key := release.KeyFor(ds, req.Eps, req.Delta, req.K, req.Seed, planned)
	jnl, err := journal.Open(filepath.Join(dir, "journal.dpkj"))
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{
		Job: "job-1", State: journal.StateAdmitted, Kind: "fit/private",
		Request: reqJSON, Dataset: ds, Planned: &planned,
		Token: "job-1-feedfacecafebeef", ReleaseKey: &key,
	}, true); err != nil {
		t.Fatal(err)
	}
	led, err := accountant.Open(filepath.Join(dir, "ledger.json")) // default-deny: no budget
	if err != nil {
		t.Fatal(err)
	}
	cache, err := release.Open(filepath.Join(dir, "releases"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, MaxJobs: 1, Ledger: led, Releases: cache, Journal: jnl})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close(); jnl.Close() }()

	code, job := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-1", nil)
	if code != http.StatusOK || job["status"] != StatusFailed {
		t.Fatalf("refused resume: %d %v, want 200 failed", code, job)
	}
	if msg, _ := job["error"].(string); !strings.Contains(msg, "budget unavailable at resume") {
		t.Errorf("failure does not name the refusal: %q", msg)
	}
	if st := waitJournalTerminal(t, jnl, "job-1"); st.State != journal.StateFailed {
		t.Errorf("journal closed the refused job as %q, want failed", st.State)
	}
	// The refusal debited nothing: the account was never created.
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/budget/"+ds, nil); code != http.StatusNotFound {
		t.Errorf("refused resume created a ledger account: budget status %d", code)
	}
}

// TestServerReplayClosesUnresumable: journal states that cannot run
// again — an interrupted generate, a job with no admission record, a
// request that no longer decodes — are closed as explicit journaled
// failures, and fresh ids never collide with journaled ones.
func TestServerReplayClosesUnresumable(t *testing.T) {
	jnl, err := journal.Open(filepath.Join(t.TempDir(), "journal.dpkj"))
	if err != nil {
		t.Fatal(err)
	}
	genReq, err := json.Marshal(&GenerateRequest{A: 0.9, B: 0.5, C: 0.3, K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journal.Record{
		{Job: "job-1", State: journal.StateAdmitted, Kind: "generate", Request: genReq},
		{Job: "job-2", State: journal.StateDebited},
		// Valid JSON (the journal stores RawMessage) that does not decode
		// as a FitRequest — the shape a newer server version could leave.
		{Job: "job-3", State: journal.StateAdmitted, Kind: "fit/private", Request: json.RawMessage(`{"eps":"high"}`)},
	} {
		if err := jnl.Append(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Options{Workers: 1, MaxJobs: 1, Journal: jnl})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close(); jnl.Close() }()

	for id, wantErr := range map[string]string{
		"job-1": "resubmit to regenerate",
		"job-2": "no admission record",
		"job-3": "does not decode",
	} {
		code, job := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
		if code != http.StatusOK || job["status"] != StatusFailed {
			t.Fatalf("%s: %d %v, want 200 failed", id, code, job)
		}
		if msg, _ := job["error"].(string); !strings.Contains(msg, wantErr) {
			t.Errorf("%s error %q does not mention %q", id, msg, wantErr)
		}
		if st := waitJournalTerminal(t, jnl, id); st.State != journal.StateFailed {
			t.Errorf("journal closed %s as %q, want failed", id, st.State)
		}
	}
	// New ids continue past the journaled ones.
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.9, B: 0.5, C: 0.3, K: 5, Seed: 1, OmitEdges: true,
	})
	if code != http.StatusAccepted || resp["id"] != "job-4" {
		t.Fatalf("post-replay submission: %d id %v, want 202 job-4", code, resp["id"])
	}
}

// TestServerDrainRefusesNewJobsServesReads: a draining server refuses
// new work with 503 + Retry-After while cache hits, job polling and
// health stay available.
func TestServerDrainRefusesNewJobsServesReads(t *testing.T) {
	dir := t.TempDir()
	led, err := accountant.Open(filepath.Join(dir, "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := release.Open(filepath.Join(dir, "releases"))
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdgeList(t, 8)
	g, err := graph.ReadEdgeList(strings.NewReader(edges), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := accountant.DatasetID(g)
	if err := led.SetBudget(ds, dp.Budget{Eps: 1, Delta: 0.05}); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2, Ledger: led, Releases: cache})

	// Prime the cache with one finished fit.
	fit := FitRequest{Method: "private", Eps: 0.4, Delta: 0.01, K: 8, Seed: 3, EdgeList: edges}
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", fit)
	if code != http.StatusAccepted {
		t.Fatalf("priming fit: status %d (%v)", code, resp)
	}
	primedID := resp["id"].(string)
	if job := pollJob(t, ts.URL, primedID, 120*time.Second); job["status"] != StatusDone {
		t.Fatalf("priming fit ended %v", job["status"])
	}

	s.StartDrain()

	if _, h := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); h["status"] != "draining" {
		t.Errorf("healthz while draining = %v, want draining", h["status"])
	}
	code, _, hdr := doJSONHeaders(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.9, B: 0.5, C: 0.3, K: 5, OmitEdges: true,
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("generate while draining: status %d, want 503", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "10" {
		t.Errorf("drain 503 Retry-After = %q, want 10", ra)
	}
	// A different question (new seed) needs a run: refused.
	other := fit
	other.Seed = 99
	if code, _, _ := doJSONHeaders(t, http.MethodPost, ts.URL+"/v1/fit", other); code != http.StatusServiceUnavailable {
		t.Errorf("fresh fit while draining: status %d, want 503", code)
	}
	// The identical question is a cache hit: still served, zero debit.
	code, resp = doJSON(t, http.MethodPost, ts.URL+"/v1/fit", fit)
	if code != http.StatusOK {
		t.Fatalf("cached fit while draining: status %d (%v)", code, resp)
	}
	if hit, _ := resp["result"].(map[string]any); hit == nil || hit["cached"] != true {
		t.Errorf("fit during drain was not a cache hit: %v", resp)
	}
	// Job polling stays available.
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+primedID, nil); code != http.StatusOK {
		t.Errorf("job poll while draining: status %d", code)
	}
	// Nothing is running, so Drain returns promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)
	if ctx.Err() != nil {
		t.Fatal("Drain with an idle server hit its deadline")
	}
}

// TestServerDrainDeadlineCancelsAndJournals: a straggler past the
// drain deadline is cancelled, its cancelled record is journaled
// before Drain returns, and a restart replays it as history.
func TestServerDrainDeadlineCancelsAndJournals(t *testing.T) {
	jnl, err := journal.Open(filepath.Join(t.TempDir(), "journal.dpkj"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	s := New(Options{Workers: 1, MaxJobs: 1, Journal: jnl})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A maximal exact sample (4^16 pair draws) cannot finish inside the
	// 200ms deadline on any hardware: a guaranteed straggler.
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.99, B: 0.55, C: 0.35, K: 16, Seed: 5, Method: "exact", OmitEdges: true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	id := resp["id"].(string)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	s.Drain(ctx)

	// Drain returned only after the cancellation finalized — the
	// journal already holds the terminal record, no polling needed.
	var got *journal.JobState
	for _, st := range journal.Reduce(jnl.Records()) {
		if st.Job == id {
			got = st
		}
	}
	if got == nil || got.State != journal.StateCancelled {
		t.Fatalf("journal after Drain holds %+v, want %s cancelled", got, id)
	}
	code, job := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
	if code != http.StatusOK || job["status"] != StatusCancelled {
		t.Fatalf("straggler after Drain: %d %v, want 200 cancelled", code, job)
	}

	// A restarted server replays the cancellation as history.
	s2 := New(Options{Workers: 1, MaxJobs: 1, Journal: jnl})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()
	code, job = doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+id, nil)
	if code != http.StatusOK || job["status"] != StatusCancelled {
		t.Fatalf("straggler after restart: %d %v, want 200 cancelled", code, job)
	}
}

// TestServerRetryAfterHeaders pins the Retry-After policy: an
// exhausted budget waits on an operator (60s), a queue spike clears in
// about a second (1s).
func TestServerRetryAfterHeaders(t *testing.T) {
	led, err := accountant.Open(filepath.Join(t.TempDir(), "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1, MaxQueue: 1, Ledger: led})

	// Budget refusal (default-deny, nothing configured): 429 + 60.
	code, _, hdr := doJSONHeaders(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
		Method: "private", Eps: 0.4, Delta: 0.01, K: 8, EdgeList: "0 1\n1 2\n",
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("budget refusal: status %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "60" {
		t.Errorf("budget 429 Retry-After = %q, want 60", ra)
	}

	// Queue refusal: 429 + 1. The k=16 exact sample occupies the queue
	// for as long as the test needs it to.
	_, first := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.99, B: 0.55, C: 0.35, K: 16, Seed: 5, Method: "exact", OmitEdges: true,
	})
	code, _, hdr = doJSONHeaders(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
		A: 0.9, B: 0.5, C: 0.3, K: 5,
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue refusal: status %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Errorf("queue 429 Retry-After = %q, want 1", ra)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+first["id"].(string), nil)
}

// TestServerEvictionJournaledAcrossRestart: with a journal, the
// -max-history bound survives restarts — evicted jobs are gone from the
// journal too (compaction), retained ones replay.
func TestServerEvictionJournaledAcrossRestart(t *testing.T) {
	jnl, err := journal.Open(filepath.Join(t.TempDir(), "journal.dpkj"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	s := New(Options{Workers: 1, MaxJobs: 1, MaxHistory: 2, Journal: jnl})
	ts := httptest.NewServer(s.Handler())
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
	// Let the last finalize's eviction settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, list := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
		if len(list["jobs"].([]any)) <= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts.Close()
	s.Close()

	s2 := New(Options{Workers: 1, MaxJobs: 1, MaxHistory: 2, Journal: jnl})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()
	_, list := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs", nil)
	if n := len(list["jobs"].([]any)); n > 2 {
		t.Errorf("restart replayed %d jobs, want <= MaxHistory=2", n)
	}
	if code, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Errorf("evicted job survived the restart: status %d", code)
	}
	if code, job := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+ids[4], nil); code != http.StatusOK || job["status"] != StatusDone {
		t.Errorf("newest job lost across restart: %d %v", code, job)
	}
}

// TestServerUnjournaledTerminalNeverEvicted: when the terminal append
// fails, the job's outcome exists only in memory — so it must survive
// the history bound until the journal holds it. Never silence, even
// under a failing disk.
func TestServerUnjournaledTerminalNeverEvicted(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	jnl, err := journal.OpenFS(inj, filepath.Join(t.TempDir(), "journal.dpkj"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	s := New(Options{Workers: 1, MaxJobs: 1, MaxHistory: 1, Journal: jnl})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// Per generate job the journal sees two syncs: admission, terminal.
	// Skip the first so job-1's terminal append is the one that fails.
	inj.Fail(faultfs.Fault{Op: faultfs.OpSync, Path: "journal", After: 1})

	var ids []string
	for i := 0; i < 3; i++ {
		_, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", GenerateRequest{
			A: 0.9, B: 0.5, C: 0.3, K: 5, Seed: uint64(i + 1), OmitEdges: true,
		})
		id := resp["id"].(string)
		ids = append(ids, id)
		// Journaled jobs beyond the bound may be evicted the instant they
		// finalize (the unjournaled job-1 already overflows MaxHistory=1),
		// so a 404 here means done-journaled-and-evicted, not lost.
		stop := time.Now().Add(30 * time.Second)
		for {
			code, job := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
			if code == http.StatusNotFound || job["status"] == StatusDone {
				break
			}
			if job["status"] == StatusFailed || job["status"] == StatusCancelled {
				t.Fatalf("job %s ended %v", id, job["status"])
			}
			if time.Now().After(stop) {
				t.Fatalf("job %s did not finish: %v", id, job)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// The unjournaled job-1 outlives the MaxHistory=1 bound: its outcome
	// would otherwise exist nowhere.
	code, job := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[0], nil)
	if code != http.StatusOK || job["status"] != StatusDone {
		t.Fatalf("unjournaled terminal job was evicted: %d %v", code, job)
	}
	// The journaled middle job did get evicted, proving the bound is
	// enforced for everything the journal holds. Eviction happens in
	// each job's finalize, which runs after its done status is already
	// pollable — so the 404 is eventual, not immediate.
	stop := time.Now().Add(30 * time.Second)
	for {
		code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[1], nil)
		if code == http.StatusNotFound {
			break
		}
		if time.Now().After(stop) {
			t.Errorf("journaled job %s not evicted under MaxHistory=1: status %d", ids[1], code)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerReadyzJournalUnwritable: an admission whose journal append
// fails answers 500, and from then on /readyz answers 503 "journal
// unwritable" with a Retry-After, until a later admission journals.
func TestServerReadyzJournalUnwritable(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	jnl, err := journal.OpenFS(inj, filepath.Join(t.TempDir(), "journal.dpkj"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	s := New(Options{Workers: 1, MaxJobs: 1, Journal: jnl})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	req := GenerateRequest{A: 0.9, B: 0.5, C: 0.3, K: 5, Seed: 1, OmitEdges: true}

	inj.Fail(faultfs.Fault{Op: faultfs.OpWrite, Path: "journal"})
	if code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", req); code != http.StatusInternalServerError {
		t.Fatalf("admission over a failing journal write: %d %v, want 500", code, resp)
	}
	code, body, hdr := doJSONHeaders(t, http.MethodGet, ts.URL+"/readyz", nil)
	if code != http.StatusServiceUnavailable || body["status"] != "journal unwritable" {
		t.Fatalf("readyz after a failed append: %d %v, want 503 journal unwritable", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("journal-unwritable readyz carries no Retry-After")
	}

	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/generate", req)
	if code != http.StatusAccepted {
		t.Fatalf("admission after the fault: %d %v, want 202", code, resp)
	}
	if code, body := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz once an admission journaled: %d %v, want 200 ready", code, body)
	}
	pollJob(t, ts.URL, resp["id"].(string), 30*time.Second)
}
