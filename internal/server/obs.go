package server

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dpkron/internal/obs"
	"dpkron/internal/trace"
)

// serverMetrics is the serving tier's telemetry bundle, built once in
// New. With a nil registry every collector is nil and every update
// no-ops — the zero-cost path for library users of this package.
type serverMetrics struct {
	httpRequests *obs.CounterVec   // route, method, code
	httpDuration *obs.HistogramVec // route
	httpInFlight *obs.Gauge

	jobsSubmitted *obs.CounterVec // kind
	jobsCompleted *obs.CounterVec // kind, status
	jobsQueued    *obs.Gauge
	jobsRunning   *obs.Gauge
	stageSeconds  *obs.HistogramVec // stage

	admissionRejected *obs.CounterVec // reason
	coalesced         *obs.Counter
	replayedJobs      *obs.Counter
	resumedJobs       *obs.Counter
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		httpRequests: reg.CounterVec("dpkron_http_requests_total", "HTTP requests served, by route, method and status code.", "route", "method", "code"),
		httpDuration: reg.HistogramVec("dpkron_http_request_seconds", "HTTP request latency, by route.", nil, "route"),
		httpInFlight: reg.Gauge("dpkron_http_in_flight_requests", "HTTP requests currently being served."),

		jobsSubmitted: reg.CounterVec("dpkron_jobs_submitted_total", "Jobs admitted into the queue, by kind.", "kind"),
		jobsCompleted: reg.CounterVec("dpkron_jobs_completed_total", "Jobs finished, by kind and terminal status.", "kind", "status"),
		jobsQueued:    reg.Gauge("dpkron_jobs_queued", "Jobs admitted and waiting for a slot."),
		jobsRunning:   reg.Gauge("dpkron_jobs_running", "Jobs currently holding a run slot."),
		stageSeconds:  reg.HistogramVec("dpkron_job_stage_seconds", "Wall-clock duration of completed pipeline stages, by stage.", nil, "stage"),

		admissionRejected: reg.CounterVec("dpkron_admission_rejected_total", "Job submissions refused at the door, by reason.", "reason"),
		coalesced:         reg.Counter("dpkron_release_coalesced_total", "Fit requests that joined an identical in-flight job instead of running (single-flight)."),
		replayedJobs:      reg.Counter("dpkron_journal_replayed_jobs_total", "Terminal jobs restored from the journal at startup."),
		resumedJobs:       reg.Counter("dpkron_journal_resumed_jobs_total", "Unfinished jobs resumed from the journal at startup."),
	}
}

// Admission rejection reasons — the label set of
// dpkron_admission_rejected_total.
const (
	rejectBudget       = "budget"
	rejectQueueFull    = "queue_full"
	rejectDraining     = "draining"
	rejectBodyTooLarge = "body_too_large"
	rejectInternal     = "internal"
)

// rejectReason maps a refused submission's HTTP status to its metric
// label. Budget refusals are detected by the caller (they carry an
// ExhaustedError) before falling back to this mapping.
func rejectReason(status int) string {
	switch status {
	case http.StatusServiceUnavailable:
		return rejectDraining
	case http.StatusTooManyRequests:
		return rejectQueueFull
	default:
		return rejectInternal
	}
}

// rejectAdmission counts and warn-logs one refused admission — the
// fix for the silent-drop failure mode where 429s and 413s vanished
// without trace. Every record carries the request id; dataset and
// remaining budget ride along when the refusal is budget-shaped.
func (s *Server) rejectAdmission(r *http.Request, reason, dataset, msg string, extra ...slog.Attr) {
	s.met.admissionRejected.With(reason).Inc()
	attrs := []slog.Attr{
		slog.String("request_id", RequestIDFrom(r.Context())),
		slog.String("reason", reason),
	}
	if dataset != "" {
		attrs = append(attrs, slog.String("dataset", dataset))
	}
	attrs = append(attrs, extra...)
	attrs = append(attrs, slog.String("error", msg))
	s.log.LogAttrs(r.Context(), slog.LevelWarn, "admission rejected", attrs...)
}

// ridKey carries the request's correlation id through its context.
type ridKey struct{}

// RequestIDFrom returns the request id the middleware attached to
// ctx, or "" outside a request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// requestID echoes a well-formed client-supplied X-Request-ID (so
// callers can stitch their own traces through the server's logs) or
// generates a fresh one. The shape check keeps hostile header bytes
// out of the logs.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > 64 {
		return obs.NewRequestID()
	}
	for _, c := range id {
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return obs.NewRequestID()
		}
	}
	return id
}

// routeLabel is the route-table pattern a request matched, without
// its method, so metric cardinality stays O(routes), never O(ids); the
// profiles share one label, and anything the table does not route
// (404, 405, redirects) is "other".
func (s *Server) routeLabel(r *http.Request) string {
	_, pattern := s.mux.Handler(r)
	_, path, ok := strings.Cut(pattern, " ")
	switch {
	case !ok:
		return "other"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "/debug/pprof"
	}
	return path
}

// quietRoute marks the probe endpoints whose per-scrape access logs
// would drown real traffic at info; they log at debug instead.
func quietRoute(route string) bool {
	return route == "/metrics" || route == "/healthz" || route == "/readyz" || route == "/debug/pprof"
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (rec *statusRecorder) WriteHeader(code int) {
	rec.status = code
	rec.ResponseWriter.WriteHeader(code)
}

// traceContext parses the request's W3C traceparent header, or mints
// a fresh trace identity when it is absent or malformed (hostile
// headers are simply replaced — the parser never panics and nothing
// unvalidated reaches logs or traces). The second return is the
// header value to echo: the client's verbatim for version-00 input,
// otherwise the generated identity so the caller learns the trace id
// its job was recorded under.
func traceContext(r *http.Request) (trace.Context, string) {
	if tc, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		return tc, tc.Traceparent()
	}
	// SpanID stays empty in the returned context — there is no real
	// client span — but the echoed header needs one, representing this
	// request's server-side handling.
	tc := trace.Context{TraceID: trace.NewTraceID(), Flags: 1}
	echo := tc
	echo.SpanID = trace.NewSpanID()
	return tc, echo.Traceparent()
}

// instrument is the HTTP middleware around the whole mux: request-id
// generation/echo (X-Request-ID, also attached to the context for the
// handlers' logs), W3C traceparent parse/echo/generate (the trace
// context rides the request context for the job tracer to join), the
// in-flight gauge, per-route request/latency/status metrics, and one
// structured access-log line per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		w.Header().Set("X-Request-ID", id)
		tc, echo := traceContext(r)
		w.Header().Set("traceparent", echo)
		ctx := context.WithValue(r.Context(), ridKey{}, id)
		ctx = context.WithValue(ctx, tcKey{}, tc)
		r = r.WithContext(ctx)
		route := s.routeLabel(r)
		s.met.httpInFlight.Inc()
		defer s.met.httpInFlight.Dec()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		s.met.httpRequests.With(route, r.Method, strconv.Itoa(rec.status)).Inc()
		s.met.httpDuration.With(route).Observe(elapsed.Seconds())
		level := slog.LevelInfo
		if quietRoute(route) {
			level = slog.LevelDebug
		}
		s.log.LogAttrs(r.Context(), level, "http request",
			slog.String("request_id", id),
			slog.String("trace_id", tc.TraceID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", rec.status),
			slog.Duration("duration", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// handleReady serves GET /readyz: the load-balancer signal, distinct
// from /healthz liveness. A draining server is alive (200 /healthz —
// don't restart it, it's finishing journaled work) but not ready (503
// here — stop routing new traffic to it before SIGTERM completes).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", "10")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleHealth serves GET /healthz, the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	s.mu.Lock()
	if s.draining {
		status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}
