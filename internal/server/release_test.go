package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/graph"
	"dpkron/internal/kronmom"
	"dpkron/internal/release"
	"dpkron/internal/skg"
)

// newCacheServer builds a server with a ledger and a release cache
// rooted in fresh temp dirs, returning both handles for direct
// inspection.
func newCacheServer(t *testing.T, extra func(*Options)) (*accountant.Ledger, *release.Cache, *httptest.Server) {
	t.Helper()
	led, err := accountant.Open(filepath.Join(t.TempDir(), "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := release.Open(filepath.Join(t.TempDir(), "releases"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 2, MaxJobs: 2, Ledger: led, Releases: rc}
	if extra != nil {
		extra(&opts)
	}
	_, ts := newTestServer(t, opts)
	return led, rc, ts
}

// stripCacheMarkers removes the fields a cached response legitimately
// adds or omits relative to the cold response it memoized: the
// cached/release markers, and remaining (ledger state at serve time,
// absent on hits because a hit never touches the ledger). Everything
// else must be identical.
func stripCacheMarkers(result map[string]any) string {
	clean := map[string]any{}
	for k, v := range result {
		switch k {
		case "cached", "release", "remaining":
		default:
			clean[k] = v
		}
	}
	b, _ := json.Marshal(clean)
	return string(b)
}

// TestServerSingleFlightRace is the headline coalescing proof: 64
// goroutines submit the identical private fit against a budget that
// affords exactly one, simultaneously. Exactly one ledger debit may
// land, exactly one job may execute, no caller may be refused, and
// every caller must end up with the same release bytes. Run under
// -race in CI.
func TestServerSingleFlightRace(t *testing.T) {
	led, _, ts := newCacheServer(t, nil)

	edges := testEdgeList(t, 7)
	g, err := graph.ReadEdgeList(strings.NewReader(edges), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := accountant.DatasetID(g)
	// Budget for exactly one (0.4, 0.01) fit: a second debit would be
	// refused with 429, so any double debit is loud, not latent.
	if err := led.SetBudget(ds, dp.Budget{Eps: 0.4, Delta: 0.01}); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(FitRequest{
		Method: "private", Eps: 0.4, Delta: 0.01, K: 7, Seed: 5,
		EdgeList: edges,
	})
	if err != nil {
		t.Fatal(err)
	}

	const callers = 64
	type reply struct {
		code int
		body map[string]any
		err  error
	}
	replies := make([]reply, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait() // maximize simultaneity
			resp, err := http.Post(ts.URL+"/v1/fit", "application/json", bytes.NewReader(body))
			if err != nil {
				replies[i].err = err
				return
			}
			defer resp.Body.Close()
			replies[i].code = resp.StatusCode
			replies[i].err = json.NewDecoder(resp.Body).Decode(&replies[i].body)
		}(i)
	}
	start.Done()
	done.Wait()

	// No caller was refused, and the in-flight callers all coalesced
	// onto one job id; late callers may instead have been served the
	// already-cached release (200, different job id, cached marker).
	flightIDs := map[string]bool{}
	var ids []string
	for i, r := range replies {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if r.code != http.StatusAccepted && r.code != http.StatusOK {
			t.Fatalf("caller %d: status %d, want 200/202 (%v)", i, r.code, r.body)
		}
		id, _ := r.body["id"].(string)
		if id == "" {
			t.Fatalf("caller %d: no job id in %v", i, r.body)
		}
		ids = append(ids, id)
		if r.code == http.StatusAccepted {
			flightIDs[id] = true
		}
	}
	if len(flightIDs) > 1 {
		t.Fatalf("concurrent identical fits spread over %d jobs %v, want 1", len(flightIDs), flightIDs)
	}

	// Every caller's job resolves done with the identical release bytes
	// (markers aside).
	want := ""
	for i, id := range ids {
		job := pollJob(t, ts.URL, id, 60*time.Second)
		if job["status"] != StatusDone {
			t.Fatalf("caller %d job %s ended %v: %v", i, id, job["status"], job)
		}
		result, _ := job["result"].(map[string]any)
		if result == nil {
			t.Fatalf("caller %d job %s has no result", i, id)
		}
		got := stripCacheMarkers(result)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("caller %d release differs:\n got %s\nwant %s", i, got, want)
		}
	}

	// Exactly one ledger debit.
	acct, ok := led.Account(ds)
	if !ok {
		t.Fatal("dataset has no ledger account")
	}
	if len(acct.Receipts) != 1 {
		t.Fatalf("ledger holds %d receipts, want exactly 1", len(acct.Receipts))
	}
	if rem := acct.Remaining(); rem.Eps > 1e-9 {
		t.Fatalf("remaining ε = %v after the single debit, want ~0", rem.Eps)
	}

	// Exactly one underlying execution: of all fit jobs, exactly one is
	// a cold (uncached) run; any others are cache-served registrations.
	code, resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: %d", code)
	}
	cold := 0
	for _, item := range resp["jobs"].([]any) {
		j := item.(map[string]any)
		if j["kind"] != "fit/private" {
			continue
		}
		result, _ := j["result"].(map[string]any)
		if result == nil {
			t.Fatalf("fit job without result: %v", j)
		}
		if result["cached"] != true {
			cold++
		}
	}
	if cold != 1 {
		t.Fatalf("%d cold fit executions, want exactly 1", cold)
	}
}

// TestServerCacheHitZeroDebit: a repeated question is served 200 from
// the cache with the original receipt, a cached marker, and zero new
// ledger debits; a question differing in one key component misses and
// is refused by the exhausted budget.
func TestServerCacheHitZeroDebit(t *testing.T) {
	led, _, ts := newCacheServer(t, nil)

	edges := testEdgeList(t, 7)
	g, err := graph.ReadEdgeList(strings.NewReader(edges), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := accountant.DatasetID(g)
	if err := led.SetBudget(ds, dp.Budget{Eps: 0.4, Delta: 0.01}); err != nil {
		t.Fatal(err)
	}
	fit := func(seed uint64) (int, map[string]any) {
		return doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
			Method: "private", Eps: 0.4, Delta: 0.01, K: 7, Seed: seed,
			EdgeList: edges,
		})
	}

	// Cold fit: the usual async job, one debit.
	code, resp := fit(5)
	if code != http.StatusAccepted {
		t.Fatalf("cold fit: status %d (%v)", code, resp)
	}
	job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second)
	if job["status"] != StatusDone {
		t.Fatalf("cold fit ended %v", job["status"])
	}
	coldResult := job["result"].(map[string]any)
	if coldResult["cached"] != nil {
		t.Fatalf("cold result carries a cached marker: %v", coldResult)
	}
	if coldResult["remaining"] == nil {
		t.Fatal("cold ledger-enforced result lacks remaining")
	}

	// Identical fit: answered 200 immediately, already done, cached
	// marker set, release id resolvable, receipt identical, no new
	// debit, and no remaining (the hit never touches the ledger).
	code, resp = fit(5)
	if code != http.StatusOK {
		t.Fatalf("cache hit: status %d, want 200 (%v)", code, resp)
	}
	if resp["status"] != StatusDone {
		t.Fatalf("cache hit status %v, want done", resp["status"])
	}
	hit := resp["result"].(map[string]any)
	if hit["cached"] != true {
		t.Fatalf("hit result lacks cached marker: %v", hit)
	}
	rel, _ := hit["release"].(string)
	if !strings.HasPrefix(rel, "rel-") {
		t.Fatalf("hit release id %q", rel)
	}
	if _, ok := hit["remaining"]; ok {
		t.Fatal("cache hit reports remaining; hits must not touch the ledger")
	}
	if got, want := stripCacheMarkers(hit), stripCacheMarkers(coldResult); got != want {
		t.Fatalf("hit differs from the fit it memoized:\n got %s\nwant %s", got, want)
	}
	if acct, _ := led.Account(ds); len(acct.Receipts) != 1 {
		t.Fatalf("cache hit debited the ledger: %d receipts", len(acct.Receipts))
	}

	// A different seed is a different question: cache miss, and the
	// exhausted budget refuses it — proving misses keep full admission
	// semantics.
	code, resp = fit(6)
	if code != http.StatusTooManyRequests {
		t.Fatalf("different-seed fit: status %d, want 429 (%v)", code, resp)
	}

	// Introspection: the release is listed and fetchable by id.
	code, resp = doJSON(t, http.MethodGet, ts.URL+"/v1/releases", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/releases: %d (%v)", code, resp)
	}
	releases := resp["releases"].([]any)
	if len(releases) != 1 {
		t.Fatalf("%d releases listed, want 1", len(releases))
	}
	meta := releases[0].(map[string]any)
	if meta["fingerprint"] != rel {
		t.Fatalf("listed fingerprint %v, want %v", meta["fingerprint"], rel)
	}
	if meta["payload"] != nil {
		t.Fatal("listing includes payloads")
	}
	code, resp = doJSON(t, http.MethodGet, ts.URL+"/v1/releases/"+rel, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/releases/%s: %d (%v)", rel, code, resp)
	}
	key := resp["key"].(map[string]any)
	if key["dataset_id"] != ds || key["seed"] != 5.0 || key["eps"] != 0.4 {
		t.Fatalf("release key %v does not match the question", key)
	}
	if resp["payload"] == nil {
		t.Fatal("release info lacks payload")
	}

	// Hostile id: rejected as not-found, never a path lookup.
	code, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/releases/rel-..%2f..%2fpasswd", nil)
	if code != http.StatusNotFound {
		t.Fatalf("traversal release id: status %d, want 404", code)
	}
}

// TestServerCorruptReleaseRecomputed: a bit-flipped persisted entry is
// detected by a fresh server sharing the cache directory, evicted, and
// the fit transparently recomputed with a fresh debit — never served,
// never a 500.
func TestServerCorruptReleaseRecomputed(t *testing.T) {
	led, rc, ts := newCacheServer(t, nil)

	edges := testEdgeList(t, 7)
	g, err := graph.ReadEdgeList(strings.NewReader(edges), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := accountant.DatasetID(g)
	// Budget for exactly two fits: the recompute's fresh debit fits,
	// a third would not.
	if err := led.SetBudget(ds, dp.Budget{Eps: 0.9, Delta: 0.05}); err != nil {
		t.Fatal(err)
	}
	req := FitRequest{
		Method: "private", Eps: 0.4, Delta: 0.01, K: 7, Seed: 5,
		EdgeList: edges,
	}

	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", req)
	if code != http.StatusAccepted {
		t.Fatalf("cold fit: status %d (%v)", code, resp)
	}
	if job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second); job["status"] != StatusDone {
		t.Fatalf("cold fit ended %v", job["status"])
	}

	// Flip a payload digit in the persisted entry.
	entries, err := filepath.Glob(filepath.Join(rc.Dir(), "rel-*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir entries = %v (%v)", entries, err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"payload"`))
	if i < 0 {
		t.Fatal("no payload in entry file")
	}
	j := bytes.IndexAny(data[i:], "0123456789")
	data[i+j] = '0' + ('9' - data[i+j])
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh server (fresh LRU) over the same cache dir and ledger:
	// the corrupt entry must not be served — the fit runs again, with a
	// fresh debit.
	rc2, err := release.Open(rc.Dir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Options{Workers: 2, MaxJobs: 2, Ledger: led, Releases: rc2})

	code, resp = doJSON(t, http.MethodPost, ts2.URL+"/v1/fit", req)
	if code != http.StatusAccepted {
		t.Fatalf("fit over corrupt entry: status %d, want 202 recompute (%v)", code, resp)
	}
	if job := pollJob(t, ts2.URL, resp["id"].(string), 60*time.Second); job["status"] != StatusDone {
		t.Fatalf("recompute ended %v", job["status"])
	}
	if acct, _ := led.Account(ds); len(acct.Receipts) != 2 {
		t.Fatalf("recompute after corruption left %d receipts, want 2 (fresh debit)", len(acct.Receipts))
	}

	// The rewritten entry is healthy again: the budget is exhausted,
	// yet the repeated question is served from the cache.
	code, resp = doJSON(t, http.MethodPost, ts2.URL+"/v1/fit", req)
	if code != http.StatusOK {
		t.Fatalf("fit after recompute: status %d, want 200 cache hit (%v)", code, resp)
	}
	if result := resp["result"].(map[string]any); result["cached"] != true {
		t.Fatalf("expected cached result, got %v", result)
	}
}

// TestServerReleaseWithoutReceiptIsMiss: a cache entry under the
// question's key whose payload decodes as a FitResult but carries no
// receipt is not a release. The server, like `dpkron fit`, reads it as
// a miss: the fit runs and debits, and its release replaces the entry.
func TestServerReleaseWithoutReceiptIsMiss(t *testing.T) {
	led, rc, ts := newCacheServer(t, nil)

	edges := testEdgeList(t, 7)
	g, err := graph.ReadEdgeList(strings.NewReader(edges), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := accountant.DatasetID(g)
	if err := led.SetBudget(ds, dp.Budget{Eps: 0.4, Delta: 0.01}); err != nil {
		t.Fatal(err)
	}
	req := FitRequest{Method: "private", Eps: 0.4, Delta: 0.01, K: 7, Seed: 5, EdgeList: edges}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	// Hand-written: a private result with its guarantee but no receipt.
	if _, err := rc.Put(*ReleaseKey(&req, ds, g.NumNodes()), map[string]any{
		"method":    "private",
		"initiator": map[string]float64{"a": 0.9, "b": 0.5, "c": 0.2},
		"k":         7,
		"privacy":   map[string]float64{"eps": 0.4, "delta": 0.01},
	}); err != nil {
		t.Fatal(err)
	}

	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", req)
	if code != http.StatusAccepted {
		t.Fatalf("fit over a receipt-less entry: status %d, want 202 (%v)", code, resp)
	}
	job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second)
	if job["status"] != StatusDone {
		t.Fatalf("fit ended %v", job["status"])
	}
	if result := job["result"].(map[string]any); result["receipt"] == nil || result["cached"] != nil {
		t.Fatalf("fit result %v, want a fresh receipt-bearing release", result)
	}
	if acct, _ := led.Account(ds); len(acct.Receipts) != 1 {
		t.Fatalf("%d ledger receipts, want the fit's one debit", len(acct.Receipts))
	}

	// The run's release replaced the entry: the question is now a hit.
	code, resp = doJSON(t, http.MethodPost, ts.URL+"/v1/fit", req)
	if code != http.StatusOK || resp["result"].(map[string]any)["cached"] != true {
		t.Fatalf("repeat: status %d, want 200 cache hit (%v)", code, resp)
	}
}

// TestServerFitByIDCacheHit: a repeated fit-by-dataset-id is answered
// from the cache before the graph is even loaded — pinned by deleting
// the stored dataset and asking again. The inferred power (k omitted)
// and its explicit equivalent share the entry.
func TestServerFitByIDCacheHit(t *testing.T) {
	st, err := dataset.Open(filepath.Join(t.TempDir(), "datasets"))
	if err != nil {
		t.Fatal(err)
	}
	led, _, ts := newCacheServer(t, func(o *Options) { o.Datasets = st })

	g, err := graph.ReadEdgeList(strings.NewReader(testEdgeList(t, 7)), 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := st.Put(g, "cache-test", "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := led.SetBudget(meta.ID, dp.Budget{Eps: 0.4, Delta: 0.01}); err != nil {
		t.Fatal(err)
	}

	// Cold fit by id, inferred power.
	code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
		Method: "private", Eps: 0.4, Delta: 0.01, Seed: 5, DatasetID: meta.ID,
	})
	if code != http.StatusAccepted {
		t.Fatalf("cold fit-by-id: status %d (%v)", code, resp)
	}
	if job := pollJob(t, ts.URL, resp["id"].(string), 60*time.Second); job["status"] != StatusDone {
		t.Fatalf("cold fit ended %v", job["status"])
	}

	// Delete the dataset; the cached answer must survive it, because a
	// hit never loads the graph. The explicit k equals the inferred
	// one, so both forms name the same question.
	if err := st.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}
	code, resp = doJSON(t, http.MethodPost, ts.URL+"/v1/fit", FitRequest{
		Method: "private", Eps: 0.4, Delta: 0.01, K: 7, Seed: 5, DatasetID: meta.ID,
	})
	if code != http.StatusOK {
		t.Fatalf("fit-by-id after delete: status %d, want 200 cache hit (%v)", code, resp)
	}
	if result := resp["result"].(map[string]any); result["cached"] != true {
		t.Fatalf("expected cached result, got %v", result)
	}
	if acct, _ := led.Account(meta.ID); len(acct.Receipts) != 1 {
		t.Fatalf("fit-by-id hit debited the ledger: %d receipts", len(acct.Receipts))
	}
}

// TestServerReleasesRequireCache: the introspection routes 404 without
// a configured cache, matching the dataset routes' behavior.
func TestServerReleasesRequireCache(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1})
	code, resp := doJSON(t, http.MethodGet, ts.URL+"/v1/releases", nil)
	if code != http.StatusNotFound {
		t.Fatalf("GET /v1/releases without cache: %d (%v)", code, resp)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "release cache") {
		t.Fatalf("error message %q", msg)
	}
}

// TestPrivateFitResultCopiesOutOfResult pins that the fit payload owns
// its values: mutating (or dropping) the core.Result afterwards must
// not reach the FitResult, so a retained job result never keeps the
// estimate's degree sequence alive.
func TestPrivateFitResultCopiesOutOfResult(t *testing.T) {
	res := &core.Result{
		Init:      skg.Initiator{A: 0.9, B: 0.5, C: 0.2},
		K:         10,
		DegreeSeq: []float64{3, 2, 1},
		Moment:    kronmom.Estimate{Objective: 0.25},
		Privacy:   dp.Budget{Eps: 0.5, Delta: 0.01},
		Receipt: accountant.Receipt{
			Policy:  "sequential",
			Total:   dp.Budget{Eps: 0.5, Delta: 0.01},
			Charges: []accountant.Charge{{Query: "q", Mechanism: "laplace", Eps: 0.5}},
		},
	}
	fr := PrivateFitResult(res, "ds")
	before, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	res.Moment.Objective = 9
	res.Privacy = dp.Budget{Eps: 9}
	res.Receipt.Total = dp.Budget{Eps: 9}
	res.Receipt.Policy = "mutated"
	res.Receipt.Charges[0].Eps = 9
	after, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("FitResult changed with its source Result:\nbefore %s\nafter  %s", before, after)
	}
}
