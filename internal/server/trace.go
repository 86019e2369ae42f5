package server

import (
	"context"
	"errors"
	"net/http"

	"dpkron/internal/accountant"
	"dpkron/internal/dp"
	"dpkron/internal/trace"
)

// tcKey carries the request's W3C trace context through its context.
type tcKey struct{}

// TraceContextFrom returns the trace context the middleware attached
// to ctx: the client's (valid traceparent header) or a generated one
// whose trace id was already echoed back. Zero outside a request.
func TraceContextFrom(ctx context.Context) trace.Context {
	tc, _ := ctx.Value(tcKey{}).(trace.Context)
	return tc
}

// startJobTrace builds the tracer and root span for a job-submitting
// request, joining the trace the middleware established (so the trace
// id a client received in the response traceparent finds this job's
// tree).
func startJobTrace(r *http.Request, kind string) (*trace.Tracer, *trace.Span) {
	tr := trace.New(TraceContextFrom(r.Context()))
	root := tr.Start(nil, kind, trace.String("request_id", RequestIDFrom(r.Context())))
	return tr, root
}

// auditDebit records the admission-time ledger decision on the debit
// span: one audit event per planned mechanism charge on success (the
// itemized ε/δ the ledger just accepted, plus rem, the account's
// remaining budget as of the debit), or a single refusal event carrying
// what was asked and what remained. Together with the per-run
// accountant events, this makes the trace the job's privacy-audit
// timeline.
func auditDebit(sp *trace.Span, dataset string, planned *accountant.Receipt, rem dp.Budget, err error) {
	if planned == nil {
		return
	}
	if err != nil {
		attrs := []trace.Attr{
			trace.String("dataset", dataset),
			trace.Float("requested_eps", planned.Total.Eps),
			trace.Float("requested_delta", planned.Total.Delta),
			trace.String("error", err.Error()),
		}
		var refused *accountant.ExhaustedError
		if errors.As(err, &refused) {
			rem := refused.Remaining()
			attrs = append(attrs,
				trace.Float("remaining_eps", rem.Eps),
				trace.Float("remaining_delta", rem.Delta))
		}
		sp.Event("ledger-refusal", attrs...)
		return
	}
	for _, c := range planned.Charges {
		sp.Event("ledger-debit",
			trace.String("dataset", dataset),
			trace.String("mechanism", c.Mechanism),
			trace.String("query", c.Query),
			trace.Float("eps", c.Eps),
			trace.Float("delta", c.Delta),
			trace.Float("remaining_eps", rem.Eps),
			trace.Float("remaining_delta", rem.Delta))
	}
}

// auditObserver builds the accountant Observer that turns each
// in-run mechanism charge (or refusal) into an audit event on the
// job's root span: mechanism name, ε/δ charged, and the run budget
// remaining after the decision.
func auditObserver(root *trace.Span) accountant.Observer {
	return func(c accountant.Charge, rem dp.Budget, err error) {
		attrs := []trace.Attr{
			trace.String("mechanism", c.Mechanism),
			trace.String("query", c.Query),
			trace.Float("eps", c.Eps),
			trace.Float("delta", c.Delta),
			trace.Float("remaining_eps", rem.Eps),
			trace.Float("remaining_delta", rem.Delta),
		}
		name := "accountant-debit"
		if err != nil {
			name = "accountant-refusal"
			attrs = append(attrs, trace.String("error", err.Error()))
		}
		root.Event(name, attrs...)
	}
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's span tree
// as JSON, or as a Chrome/Perfetto trace-event file with
// ?format=chrome (load it in chrome://tracing or ui.perfetto.dev).
// The trace lives on the job, so it is evicted with the job's history.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil || j.tr == nil {
		writeError(w, http.StatusNotFound, "no trace for this job (unknown id, evicted with job history, or a job that did not run here: restored as finished or a release-cache hit)")
		return
	}
	tree := j.tr.Tree()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="`+id+`.trace.json"`)
		_ = trace.WriteChrome(w, tree)
		return
	}
	writeJSON(w, http.StatusOK, tree)
}
