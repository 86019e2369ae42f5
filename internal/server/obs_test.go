package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/dp"
	"dpkron/internal/obs"
)

// scrapeMetrics renders the registry through its own Handler — the
// handler an operator mounts, since Server.Handler never serves it —
// and parses every sample line into a map from "name{labels}" (labels
// as rendered) to its value.
func scrapeMetrics(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sumPrefix totals every sample whose key starts with prefix — the
// label-blind sum of a metric family.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// syncBuffer is a goroutine-safe log sink for asserting on records.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func newObsTestServer(t *testing.T, opts Options) (*Server, string, *syncBuffer) {
	t.Helper()
	logs := &syncBuffer{}
	logger, err := obs.NewLogger(logs, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	opts.Metrics = obs.NewRegistry()
	opts.Logger = logger
	s, ts := newTestServer(t, opts)
	return s, ts.URL, logs
}

// TestServerMetricsHammer floods an instrumented server with 64
// concurrent fits while concurrently rendering its registry, then checks
// the final exposition for internal consistency: every submitted job
// completed, the in-flight/queued/running gauges returned to rest, and
// HTTP accounting covered the traffic. Run under -race this also
// proves the collectors and render path are data-race free.
func TestServerMetricsHammer(t *testing.T) {
	s, base, _ := newObsTestServer(t, Options{Workers: 2, MaxJobs: 4, MaxQueue: 128})
	el := testEdgeList(t, 6)

	const fits = 64
	stopScrapes := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stopScrapes:
					return
				default:
				}
				s.opts.Metrics.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
			}
		}()
	}

	var fitWG sync.WaitGroup
	ids := make([]string, fits)
	for i := 0; i < fits; i++ {
		fitWG.Add(1)
		go func(i int) {
			defer fitWG.Done()
			code, resp := doJSON(t, http.MethodPost, base+"/v1/fit", FitRequest{
				Method: "mom", K: 6, Seed: uint64(i + 1), EdgeList: el,
			})
			if code != http.StatusAccepted {
				t.Errorf("fit %d: status %d (%v)", i, code, resp)
				return
			}
			ids[i], _ = resp["id"].(string)
		}(i)
	}
	fitWG.Wait()
	close(stopScrapes)
	scrapeWG.Wait()

	for _, id := range ids {
		if id == "" {
			t.Fatal("a fit was not admitted")
		}
		pollJob(t, base, id, 60*time.Second)
	}

	// Terminal job status is visible before finalize updates the
	// counters, and a client can read a response before the middleware
	// leaves the in-flight gauge, so give both a moment to converge.
	deadline := time.Now().Add(10 * time.Second)
	var m map[string]float64
	for {
		m = scrapeMetrics(t, s.opts.Metrics)
		settled := sumPrefix(m, "dpkron_jobs_completed_total") == fits && m["dpkron_http_in_flight_requests"] == 0
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	if got := sumPrefix(m, "dpkron_jobs_submitted_total"); got != fits {
		t.Errorf("jobs_submitted_total = %v, want %d", got, fits)
	}
	if got := sumPrefix(m, "dpkron_jobs_completed_total"); got != fits {
		t.Errorf("jobs_completed_total = %v, want %d", got, fits)
	}
	if got := m[`dpkron_jobs_completed_total{kind="fit/mom",status="done"}`]; got != fits {
		t.Errorf(`jobs_completed_total{fit/mom,done} = %v, want %d`, got, fits)
	}
	if got := m["dpkron_jobs_running"]; got != 0 {
		t.Errorf("jobs_running = %v at rest, want 0", got)
	}
	if got := m["dpkron_jobs_queued"]; got != 0 {
		t.Errorf("jobs_queued = %v at rest, want 0", got)
	}
	if got := m["dpkron_http_in_flight_requests"]; got != 0 {
		t.Errorf("http_in_flight_requests = %v at rest, want 0", got)
	}
	if got := m[`dpkron_http_requests_total{route="/v1/fit",method="POST",code="202"}`]; got != fits {
		t.Errorf("http_requests_total for fits = %v, want %d", got, fits)
	}
	if got := sumPrefix(m, `dpkron_http_request_seconds_count{route="/v1/fit"}`); got != fits {
		t.Errorf("http_request_seconds_count for fits = %v, want %d", got, fits)
	}
	// Stage tracing observed at least one completed stage per fit.
	if got := sumPrefix(m, "dpkron_job_stage_seconds_count"); got < fits {
		t.Errorf("job_stage_seconds observations = %v, want >= %d", got, fits)
	}
}

// TestServerReadyz: /readyz mirrors drain state — 200 while serving,
// 503 with Retry-After once draining — while /healthz stays 200
// throughout (alive, finishing journaled work; don't restart it).
func TestServerReadyz(t *testing.T) {
	s, base, _ := newObsTestServer(t, Options{Workers: 1, MaxJobs: 1})
	code, body := doJSON(t, http.MethodGet, base+"/readyz", nil)
	if code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz before drain: %d %v, want 200 ready", code, body)
	}
	s.StartDrain()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz carries no Retry-After")
	}
	if code, _ := doJSON(t, http.MethodGet, base+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200", code)
	}
}

// TestServerAdmissionRejectionTelemetry: refused admissions — once
// silent drops — are counted by reason and warn-logged with the
// request id. Exercises the draining, queue_full and budget reasons.
func TestServerAdmissionRejectionTelemetry(t *testing.T) {
	t.Run("draining", func(t *testing.T) {
		s, base, logs := newObsTestServer(t, Options{Workers: 1, MaxJobs: 1})
		s.StartDrain()
		code, _ := doJSON(t, http.MethodPost, base+"/v1/fit", FitRequest{
			Method: "mom", EdgeList: "0 1\n1 2\n",
		})
		if code != http.StatusServiceUnavailable {
			t.Fatalf("fit while draining: status %d, want 503", code)
		}
		m := scrapeMetrics(t, s.opts.Metrics)
		if got := m[`dpkron_admission_rejected_total{reason="draining"}`]; got != 1 {
			t.Errorf(`admission_rejected_total{draining} = %v, want 1`, got)
		}
		if lg := logs.String(); !strings.Contains(lg, "admission rejected") || !strings.Contains(lg, `"request_id"`) {
			t.Errorf("no admission-rejected log with request id:\n%s", lg)
		}
	})

	t.Run("queue_full", func(t *testing.T) {
		s, base, logs := newObsTestServer(t, Options{Workers: 1, MaxJobs: 1, MaxQueue: 1})
		_, first := doJSON(t, http.MethodPost, base+"/v1/generate", GenerateRequest{
			A: 0.99, B: 0.55, C: 0.35, K: 13, Seed: 5, Method: "exact", OmitEdges: true,
		})
		code, _ := doJSON(t, http.MethodPost, base+"/v1/generate", GenerateRequest{
			A: 0.9, B: 0.5, C: 0.3, K: 6,
		})
		doJSON(t, http.MethodDelete, base+"/v1/jobs/"+first["id"].(string), nil)
		if code != http.StatusTooManyRequests {
			t.Fatalf("over-queue submission: status %d, want 429", code)
		}
		m := scrapeMetrics(t, s.opts.Metrics)
		if got := m[`dpkron_admission_rejected_total{reason="queue_full"}`]; got != 1 {
			t.Errorf(`admission_rejected_total{queue_full} = %v, want 1`, got)
		}
		if !strings.Contains(logs.String(), "admission rejected") {
			t.Error("queue-full rejection was not logged")
		}
	})

	t.Run("budget", func(t *testing.T) {
		led, err := accountant.Open(t.TempDir() + "/ledger.json")
		if err != nil {
			t.Fatal(err)
		}
		const ds = "starved"
		if err := led.SetBudget(ds, dp.Budget{Eps: 0.01, Delta: 0.0001}); err != nil {
			t.Fatal(err)
		}
		s, base, logs := newObsTestServer(t, Options{Workers: 1, MaxJobs: 1, Ledger: led})
		code, resp := doJSON(t, http.MethodPost, base+"/v1/fit", FitRequest{
			Method: "private", Eps: 1, Delta: 0.01, Dataset: ds, EdgeList: "0 1\n1 2\n",
		})
		if code != http.StatusTooManyRequests {
			t.Fatalf("starved fit: status %d (%v), want 429", code, resp)
		}
		m := scrapeMetrics(t, s.opts.Metrics)
		if got := m[`dpkron_admission_rejected_total{reason="budget"}`]; got != 1 {
			t.Errorf(`admission_rejected_total{budget} = %v, want 1`, got)
		}
		// The ledger's own refusal counter agrees.
		if got := m[fmt.Sprintf(`dpkron_ledger_refusals_total{dataset=%q}`, ds)]; got != 1 {
			t.Errorf(`ledger_refusals_total{%s} = %v, want 1`, ds, got)
		}
		lg := logs.String()
		for _, want := range []string{"admission rejected", `"dataset":"starved"`, "remaining_eps"} {
			if !strings.Contains(lg, want) {
				t.Errorf("budget rejection log is missing %q:\n%s", want, lg)
			}
		}
	})
}

// TestServerRequestIDEcho: a well-formed client X-Request-ID is echoed
// back; a hostile one is replaced with a generated id.
func TestServerRequestIDEcho(t *testing.T) {
	_, base, _ := newObsTestServer(t, Options{Workers: 1, MaxJobs: 1})
	req, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-42.a_b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-42.a_b" {
		t.Errorf("well-formed request id not echoed: got %q", got)
	}

	const hostile = "spaces and {braces} fail the shape check"
	req.Header.Set("X-Request-ID", hostile)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" || got == hostile {
		t.Errorf("hostile request id not replaced: got %q", got)
	}
}
