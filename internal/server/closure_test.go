package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/graph"
	"dpkron/internal/journal"
	"dpkron/internal/obs"
	"dpkron/internal/release"
)

// The tests in this file keep the stored-data exit closed: a graph in
// the dataset store leaves the server only as a private fit that the
// ledger debited.

// publicDatasetFields are the only keys an HTTP view of a dataset may
// carry. Under edge DP the node count is public, the edge count is not,
// and the file size is a function of the edge count.
var publicDatasetFields = map[string]bool{
	"id": true, "name": true, "nodes": true, "source": true, "format": true, "imported": true,
}

// checkDatasetView fails unless v is a dataset view of public fields
// only.
func checkDatasetView(t *testing.T, where string, v any) {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("%s: dataset view is %T, want an object", where, v)
	}
	for k := range m {
		if !publicDatasetFields[k] {
			t.Errorf("%s: dataset view carries %q: %v", where, k, m)
		}
	}
	if _, ok := m["nodes"]; !ok {
		t.Errorf("%s: dataset view lacks the node count: %v", where, m)
	}
}

// checkKeys fails unless every key of the object v is in allowed.
func checkKeys(t *testing.T, where string, v any, allowed ...string) {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("%s: %T, want an object", where, v)
	}
	for k := range m {
		if !slices.Contains(allowed, k) {
			t.Errorf("%s carries %q (allowed: %v): %v", where, k, allowed, m)
		}
	}
}

// servedReleases holds every distinct private release a response
// carried, keyed by its canonical bytes (cache markers and ledger state
// stripped, so a cold answer, its cache hits and its cache entry are one
// release), with the release's receipt total.
type servedReleases map[string]dp.Budget

// collect walks a decoded JSON response and records each fit result in
// it. A fit result that is not a private release fails the test.
func (sr servedReleases) collect(t *testing.T, v any) {
	t.Helper()
	switch v := v.(type) {
	case map[string]any:
		if _, isFit := v["initiator"]; isFit {
			rc, ok := v["receipt"].(map[string]any)
			if v["method"] != "private" || !ok {
				t.Errorf("a response carries a fit result that is no private release: %v", v)
				return
			}
			total := rc["total"].(map[string]any)
			sr[stripCacheMarkers(v)] = dp.Budget{Eps: total["eps"].(float64), Delta: total["delta"].(float64)}
			return
		}
		for _, x := range v {
			sr.collect(t, x)
		}
	case []any:
		for _, x := range v {
			sr.collect(t, x)
		}
	}
}

// closureFixture is a server configured with everything that can expose
// stored data — a dataset store, a ledger, a release cache, a journal,
// metrics and profiles — holding one stored dataset.
type closureFixture struct {
	s   *Server
	ts  *httptest.Server
	led *accountant.Ledger
	jnl *journal.Journal
	id  string
}

func newClosureFixture(t *testing.T, budget dp.Budget) *closureFixture {
	t.Helper()
	dir := t.TempDir()
	st, err := dataset.Open(filepath.Join(dir, "datasets"))
	if err != nil {
		t.Fatal(err)
	}
	led, err := accountant.Open(filepath.Join(dir, "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := release.Open(filepath.Join(dir, "releases"))
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(filepath.Join(dir, "journal.dpkj"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(strings.NewReader(testEdgeList(t, 7)), 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := st.Put(g, "sensitive", "snap")
	if err != nil {
		t.Fatal(err)
	}
	if err := led.SetBudget(meta.ID, budget); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{
		Workers: 2, MaxJobs: 2, Datasets: st, Ledger: led, Releases: rc, Journal: jnl,
		Metrics: obs.NewRegistry(),
	})
	t.Cleanup(func() { jnl.Close() })
	return &closureFixture{s: s, ts: ts, led: led, jnl: jnl, id: meta.ID}
}

// TestServerStoredDataReleaseClosure walks the server's route table
// with a stored dataset that has budget. Every route is classified:
// its responses carry no value of the stored graph beyond its public
// fields, or they carry only private releases the ledger debited. A
// route added to the table fails here until it is classified. The
// operator surface (the metrics exposition, which reveals dataset sizes
// and every account's spend, and the runtime profiles) is not on this
// listener even with Options.Metrics set. Finally, the ledger's spend
// must equal the receipts of the distinct releases served.
func TestServerStoredDataReleaseClosure(t *testing.T) {
	fx := newClosureFixture(t, dp.Budget{Eps: 0.8, Delta: 0.02})
	served := servedReleases{}
	call := func(t *testing.T, method, path string, body any) (int, map[string]any) {
		t.Helper()
		code, resp := doJSON(t, method, fx.ts.URL+path, body)
		served.collect(t, resp)
		return code, resp
	}
	fit := func(t *testing.T, seed uint64) (int, map[string]any) {
		t.Helper()
		return call(t, http.MethodPost, "/v1/fit", FitRequest{Method: "private", Eps: 0.4, Delta: 0.01, Seed: seed, DatasetID: fx.id})
	}
	wait := func(t *testing.T, id string) map[string]any {
		t.Helper()
		job := pollJob(t, fx.ts.URL, id, 60*time.Second)
		if job["status"] != StatusDone {
			t.Fatalf("job %s ended %v: %v", id, job["status"], job)
		}
		served.collect(t, job)
		return job
	}

	// One debited release and one generate-into-store job exist before
	// the walk, so every route has something to show.
	code, resp := fit(t, 1)
	if code != http.StatusAccepted {
		t.Fatalf("first private fit: status %d (%v)", code, resp)
	}
	fitJob := resp["id"].(string)
	wait(t, fitJob)
	code, resp = call(t, http.MethodPost, "/v1/generate", GenerateRequest{
		A: 0.9, B: 0.5, C: 0.3, K: 6, Seed: 2, Store: true, OmitEdges: true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("generate into store: status %d (%v)", code, resp)
	}
	genJob := resp["id"].(string)
	wait(t, genJob)

	// checkJob checks one job view: a fit is a private release
	// (collected), a generate result shows its stored sample's view.
	checkJob := func(t *testing.T, v any) {
		t.Helper()
		job := v.(map[string]any)
		switch job["kind"] {
		case "fit/private":
		case "generate":
			if res, ok := job["result"].(map[string]any); ok && res["dataset"] != nil {
				checkDatasetView(t, "generate result", res["dataset"])
			}
		default:
			t.Errorf("job of kind %v admitted: %v", job["kind"], job)
		}
	}
	closure := map[string]func(*testing.T){
		// Debited private releases, or refusals that carry nothing.
		"POST /v1/fit": func(t *testing.T) {
			if code, resp := fit(t, 1); code != http.StatusOK {
				t.Errorf("repeated question: status %d, want 200 from the cache (%v)", code, resp)
			}
			for _, method := range []string{"mom", "mle"} {
				code, resp := call(t, http.MethodPost, "/v1/fit", FitRequest{Method: method, K: 7, DatasetID: fx.id})
				if code != http.StatusBadRequest {
					t.Errorf("%s by id: status %d, want 400 (%v)", method, code, resp)
				}
			}
			code, resp := fit(t, 2)
			if code != http.StatusAccepted {
				t.Fatalf("second question: status %d (%v)", code, resp)
			}
			wait(t, resp["id"].(string))
			if code, resp := fit(t, 3); code != http.StatusTooManyRequests {
				t.Errorf("question past the budget: status %d, want 429 (%v)", code, resp)
			}
		},
		// A sample is a function of the request's public parameters; a
		// stored sample shows only its view.
		"POST /v1/generate": func(t *testing.T) {
			code, resp := call(t, http.MethodPost, "/v1/generate", GenerateRequest{
				A: 0.9, B: 0.5, C: 0.3, K: 6, Seed: 3, Store: true, OmitEdges: true,
			})
			if code != http.StatusAccepted {
				t.Fatalf("generate: status %d (%v)", code, resp)
			}
			checkJob(t, wait(t, resp["id"].(string)))
		},
		// Job views hold private releases and generate results only.
		"GET /v1/jobs": func(t *testing.T) {
			_, resp := call(t, http.MethodGet, "/v1/jobs", nil)
			for _, j := range resp["jobs"].([]any) {
				checkJob(t, j)
			}
		},
		"GET /v1/jobs/{id}": func(t *testing.T) {
			for _, id := range []string{fitJob, genJob} {
				_, resp := call(t, http.MethodGet, "/v1/jobs/"+id, nil)
				checkJob(t, resp)
			}
		},
		// A span tree holds names, ids, times and the audit of the
		// data-independent planned charges; every attribute key is
		// known. (Durations are a timing channel this closure does not
		// cover, as the job view's stage seconds are.)
		"GET /v1/jobs/{id}/trace": func(t *testing.T) {
			code, resp := call(t, http.MethodGet, "/v1/jobs/"+fitJob+"/trace", nil)
			if code != http.StatusOK {
				t.Fatalf("trace: status %d (%v)", code, resp)
			}
			raw, _ := json.Marshal(resp)
			var tree struct{ Spans []*traceNode }
			if err := json.Unmarshal(raw, &tree); err != nil {
				t.Fatal(err)
			}
			checkTraceAttrs(t, tree.Spans)
		},
		"DELETE /v1/jobs/{id}": func(t *testing.T) {
			_, resp := call(t, http.MethodDelete, "/v1/jobs/"+fitJob, nil)
			checkKeys(t, "cancel", resp, "id", "kind", "status")
		},
		// The account: budget and the sum of data-independent planned
		// charges.
		"GET /v1/budget/{dataset}": func(t *testing.T) {
			_, resp := call(t, http.MethodGet, "/v1/budget/"+fx.id, nil)
			checkKeys(t, "budget", resp, "dataset", "budget", "spent", "remaining", "receipts")
		},
		// Dataset views: public fields only.
		"POST /v1/datasets": func(t *testing.T) {
			code, resp := upload(t, fx.ts.URL, []byte(testEdgeList(t, 6)), nil)
			if code != http.StatusCreated {
				t.Fatalf("import: status %d (%v)", code, resp)
			}
			checkDatasetView(t, "import", resp)
		},
		"GET /v1/datasets": func(t *testing.T) {
			_, resp := call(t, http.MethodGet, "/v1/datasets", nil)
			list := resp["datasets"].([]any)
			if len(list) < 2 {
				t.Fatalf("list holds %d datasets, want the stored one and the samples", len(list))
			}
			for _, v := range list {
				checkDatasetView(t, "list", v)
			}
		},
		"GET /v1/datasets/{id}": func(t *testing.T) {
			_, resp := call(t, http.MethodGet, "/v1/datasets/"+fx.id, nil)
			checkDatasetView(t, "meta", resp)
		},
		"DELETE /v1/datasets/{id}": func(t *testing.T) {
			_, list := call(t, http.MethodGet, "/v1/datasets", nil)
			for _, v := range list["datasets"].([]any) {
				if id := v.(map[string]any)["id"].(string); id != fx.id {
					_, resp := call(t, http.MethodDelete, "/v1/datasets/"+id, nil)
					checkKeys(t, "delete", resp, "deleted")
				}
			}
		},
		// Cached releases: entry metadata, and each entry's payload is a
		// release the ledger debited.
		"GET /v1/releases": func(t *testing.T) {
			_, resp := call(t, http.MethodGet, "/v1/releases", nil)
			for _, e := range resp["releases"].([]any) {
				checkKeys(t, "release entry", e, "fingerprint", "key", "stored", "checksum", "bytes")
			}
		},
		"GET /v1/releases/{id}": func(t *testing.T) {
			_, resp := call(t, http.MethodGet, "/v1/releases", nil)
			for _, e := range resp["releases"].([]any) {
				fp := e.(map[string]any)["fingerprint"].(string)
				if code, resp := call(t, http.MethodGet, "/v1/releases/"+fp, nil); code != http.StatusOK {
					t.Errorf("release %s: status %d (%v)", fp, code, resp)
				}
			}
		},
		"GET /healthz": func(t *testing.T) {
			_, resp := call(t, http.MethodGet, "/healthz", nil)
			checkKeys(t, "healthz", resp, "status")
		},
		"GET /readyz": func(t *testing.T) {
			_, resp := call(t, http.MethodGet, "/readyz", nil)
			checkKeys(t, "readyz", resp, "status")
		},
	}
	table := map[string]bool{}
	for _, rt := range fx.s.routes() {
		table[rt.pattern] = true
		probe, ok := closure[rt.pattern]
		if !ok {
			t.Errorf("route %q is not classified: say whether it carries no stored-data value or only debited private releases", rt.pattern)
			continue
		}
		t.Run(rt.pattern, probe)
	}
	for pattern := range closure {
		if !table[pattern] {
			t.Errorf("classified route %q is not in the route table", pattern)
		}
	}

	// The operator surface is served by `serve -metrics-addr` only.
	for _, path := range []string{
		"/metrics", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile",
		"/debug/pprof/symbol", "/debug/pprof/trace",
	} {
		t.Run("GET "+path, func(t *testing.T) {
			if table["GET "+path] {
				t.Fatalf("operator route %q is in the route table", path)
			}
			resp, err := http.Get(fx.ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s on the request listener: status %d, want 404", path, resp.StatusCode)
			}
		})
	}

	// Every release served was debited, and nothing else was.
	acct, ok := fx.led.Account(fx.id)
	if !ok {
		t.Fatal("the stored dataset has no ledger account")
	}
	var sum dp.Budget
	for _, b := range served {
		sum = dp.Compose(sum, b)
	}
	if len(served) != len(acct.Receipts) || len(served) != 2 {
		t.Errorf("%d distinct releases served, %d debits on the ledger; want 2 of each", len(served), len(acct.Receipts))
	}
	if math.Abs(sum.Eps-acct.Spent.Eps) > 1e-12 || math.Abs(sum.Delta-acct.Spent.Delta) > 1e-12 {
		t.Errorf("served receipts sum to %+v, the ledger spent %+v", sum, acct.Spent)
	}
}

// traceNode is the part of a span tree node the closure checks.
type traceNode struct {
	Name   string            `json:"name"`
	Attrs  map[string]string `json:"attrs"`
	Events []struct {
		Name  string            `json:"name"`
		Attrs map[string]string `json:"attrs"`
	} `json:"events"`
	Children []*traceNode `json:"children"`
}

// traceAttrKeys are the span and event attribute keys a job trace may
// carry: identities, cache and journal states, worker counts, and the
// audit of planned and per-mechanism charges, none a value of the
// graph.
var traceAttrKeys = map[string]bool{
	"request_id": true, "job_id": true, "status": true, "state": true, "workers": true,
	"dataset": true, "dataset_id": true, "source": true, "fingerprint": true, "hit": true,
	"mechanism": true, "query": true, "eps": true, "delta": true,
	"remaining_eps": true, "remaining_delta": true,
	"requested_eps": true, "requested_delta": true, "error": true, "resumed": true,
}

func checkTraceAttrs(t *testing.T, nodes []*traceNode) {
	t.Helper()
	for _, n := range nodes {
		for k := range n.Attrs {
			if !traceAttrKeys[k] {
				t.Errorf("span %q carries attribute %q = %q", n.Name, k, n.Attrs[k])
			}
		}
		for _, e := range n.Events {
			for k := range e.Attrs {
				if !traceAttrKeys[k] {
					t.Errorf("event %q on span %q carries attribute %q = %q", e.Name, n.Name, k, e.Attrs[k])
				}
			}
		}
		checkTraceAttrs(t, n.Children)
	}
}

// TestServerStoredDataProbe is the stored-data probe: a dataset with
// budget (0.1, 0.001) refuses a private fit at (0.4, 0.01) with 429,
// refuses mom and mle by id with 400 before any job or journal record,
// shows nothing spent, and its list and meta views carry no edge count
// and no file size.
func TestServerStoredDataProbe(t *testing.T) {
	fx := newClosureFixture(t, dp.Budget{Eps: 0.1, Delta: 0.001})
	code, resp := doJSON(t, http.MethodPost, fx.ts.URL+"/v1/fit", FitRequest{
		Method: "private", Eps: 0.4, Delta: 0.01, DatasetID: fx.id,
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("private fit past the budget: status %d, want 429 (%v)", code, resp)
	}
	before := len(fx.jnl.Records())
	for _, method := range []string{"mom", "mle"} {
		code, resp := doJSON(t, http.MethodPost, fx.ts.URL+"/v1/fit", FitRequest{Method: method, DatasetID: fx.id})
		if msg, _ := resp["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, `"private"`) {
			t.Errorf("%s by id: status %d (%v), want 400 naming the rule", method, code, resp)
		}
	}
	if n := len(fx.jnl.Records()); n != before {
		t.Errorf("refused by-id fits wrote %d journal records", n-before)
	}
	_, jobs := doJSON(t, http.MethodGet, fx.ts.URL+"/v1/jobs", nil)
	for _, j := range jobs["jobs"].([]any) {
		t.Errorf("a refused fit left a job: %v", j)
	}
	_, acct := doJSON(t, http.MethodGet, fx.ts.URL+"/v1/budget/"+fx.id, nil)
	if spent := acct["spent"].(map[string]any); spent["eps"] != 0.0 || spent["delta"] != 0.0 || acct["receipts"] != 0.0 {
		t.Errorf("budget after refusals: %v, want nothing spent", acct)
	}
	_, list := doJSON(t, http.MethodGet, fx.ts.URL+"/v1/datasets", nil)
	for _, v := range list["datasets"].([]any) {
		checkDatasetView(t, "list", v)
	}
	_, meta := doJSON(t, http.MethodGet, fx.ts.URL+"/v1/datasets/"+fx.id, nil)
	checkDatasetView(t, "meta", meta)
}

// TestServerStoredDataReplay: a journal written by an older binary that
// holds an unfinished by-id mom admission is closed with a journaled
// failure, running nothing and debiting nothing, while an unfinished
// by-id private fit in the same journal resumes to the release bits its
// first life produced.
func TestServerStoredDataReplay(t *testing.T) {
	// Life A: one by-id private fit, run to completion.
	dir := t.TempDir()
	st, err := dataset.Open(filepath.Join(dir, "datasets"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(strings.NewReader(testEdgeList(t, 7)), 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := st.Put(g, "sensitive", "snap")
	if err != nil {
		t.Fatal(err)
	}
	budget := dp.Budget{Eps: 0.9, Delta: 0.05}
	life := func(name string) (*accountant.Ledger, *release.Cache, *journal.Journal) {
		led, err := accountant.Open(filepath.Join(dir, name+"-ledger.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := led.SetBudget(meta.ID, budget); err != nil {
			t.Fatal(err)
		}
		rc, err := release.Open(filepath.Join(dir, name+"-releases"))
		if err != nil {
			t.Fatal(err)
		}
		jnl, err := journal.Open(filepath.Join(dir, name+"-journal.dpkj"))
		if err != nil {
			t.Fatal(err)
		}
		return led, rc, jnl
	}
	ledA, rcA, jnlA := life("a")
	sA := New(Options{Workers: 2, MaxJobs: 2, Datasets: st, Ledger: ledA, Releases: rcA, Journal: jnlA})
	tsA := httptest.NewServer(sA.Handler())
	code, resp := doJSON(t, http.MethodPost, tsA.URL+"/v1/fit", FitRequest{
		Method: "private", Eps: 0.4, Delta: 0.01, Seed: 3, DatasetID: meta.ID,
	})
	if code != http.StatusAccepted {
		t.Fatalf("life A fit: status %d (%v)", code, resp)
	}
	if job := pollJob(t, tsA.URL, resp["id"].(string), 60*time.Second); job["status"] != StatusDone {
		t.Fatalf("life A fit ended %v: %v", job["status"], job)
	}
	tsA.Close()
	sA.Close()
	admitted := jnlA.Records()[0]
	jnlA.Close()
	if admitted.State != journal.StateAdmitted || admitted.ReleaseKey == nil || admitted.Kind != "fit/private" {
		t.Fatalf("life A's first record is not a cacheable private admission: %+v", admitted)
	}
	want, ok := rcA.Get(*admitted.ReleaseKey)
	if !ok {
		t.Fatal("life A left no release in the cache")
	}

	// Life B's journal: life A's admission, crashed before its debit,
	// and a by-id mom admission as an older binary journaled it.
	led, rc, jnl := life("b")
	defer jnl.Close()
	if err := jnl.Append(admitted, true); err != nil {
		t.Fatal(err)
	}
	momReq, err := json.Marshal(&FitRequest{Method: "mom", Eps: 0.2, Delta: 0.01, K: 7, Seed: 1, DatasetID: meta.ID})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{
		Job: "job-2", State: journal.StateAdmitted, Kind: "fit/mom", Request: momReq,
	}, true); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 2, Datasets: st, Ledger: led, Releases: rc, Journal: jnl})

	code, job := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-2", nil)
	if msg, _ := job["error"].(string); code != http.StatusOK || job["status"] != StatusFailed || !strings.Contains(msg, `"private"`) {
		t.Fatalf("journaled by-id mom: %d %v, want failed naming the rule", code, job)
	}
	if st := waitJournalTerminal(t, jnl, "job-2"); st.State != journal.StateFailed {
		t.Errorf("journal closed job-2 as %q, want failed", st.State)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-2/trace", nil); code != http.StatusNotFound {
		t.Errorf("the refused job ran here: trace status %d, want 404", code)
	}

	if job := pollJob(t, ts.URL, admitted.Job, 60*time.Second); job["status"] != StatusDone {
		t.Fatalf("resumed private fit ended %v: %v", job["status"], job)
	}
	got, ok := rc.Get(*admitted.ReleaseKey)
	if !ok {
		t.Fatal("the resumed fit left no release in the cache")
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Errorf("resumed release differs from life A's:\n got %s\nwant %s", got.Payload, want.Payload)
	}
	// One debit, the private fit's; the mom admission debited nothing.
	if acct, _ := led.Account(meta.ID); len(acct.Receipts) != 1 {
		t.Errorf("%d debits after replay, want the private fit's one", len(acct.Receipts))
	}
}
