package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"

	"dpkron/internal/graph"
	"dpkron/internal/journal"
	"dpkron/internal/release"
	"dpkron/internal/trace"
)

// replay, called from New when a journal is configured, restores the
// server's job table from the log and resumes unfinished work. The
// serving invariant it upholds: every debit the journal proves is
// eventually matched by a served release or an explicit journaled
// failure — never silence.
//
//   - Terminal jobs become history: GET /v1/jobs/{id} answers across
//     restarts, with the retained result when it fit the journal's cap.
//   - An unfinished fit is resumed: its release key is checked against
//     the cache first (a crash after the cache Put but before the done
//     record means the work is already paid for and finished — serve
//     it, never recompute), otherwise its debit is re-issued under the
//     idempotent job-id token (at most one debit total, no matter
//     where the crash fell) and the fit re-executes deterministically
//     from the recorded seed, landing the identical release.
//   - Anything that cannot be resumed — a generate job (no budget at
//     stake), a request that no longer decodes, a dataset since
//     deleted — is closed with an explicit journaled failure.
func (s *Server) replay() {
	states := journal.Reduce(s.opts.Journal.Records())
	s.mu.Lock()
	// Restore the id counter past every journaled job so new ids never
	// collide with resumed or historical ones.
	for _, st := range states {
		if n, ok := jobNumber(st.Job); ok && n > s.next {
			s.next = n
		}
	}
	var unfinished []*journal.JobState
	for _, st := range states {
		if !st.Terminal() {
			unfinished = append(unfinished, st)
			continue
		}
		j := &job{
			id:        st.Job,
			kind:      st.Kind,
			cancel:    func() {},
			status:    st.State,
			errMsg:    st.Error,
			journaled: true,
		}
		if len(st.Result) > 0 {
			j.result = json.RawMessage(st.Result)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.met.replayedJobs.Inc()
	}
	s.evictHistoryLocked()
	s.mu.Unlock()
	if len(states) > 0 {
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "journal replayed",
			slog.Int("jobs", len(states)), slog.Int("unfinished", len(unfinished)))
	}
	for _, st := range unfinished {
		s.resume(st)
	}
}

// resume restarts one unfinished journaled job through admitFit, the
// admission path of a fresh fit, or closes it with a journaled failure
// when it cannot run again.
func (s *Server) resume(st *journal.JobState) {
	ad := st.Admitted
	if ad == nil {
		s.closeUnresumable(st, "journal holds no admission record for this job; cannot resume")
		return
	}
	if !strings.HasPrefix(st.Kind, "fit/") {
		// A generate job holds no privacy budget, so re-running it
		// unasked buys nothing the client can't get by resubmitting;
		// close it explicitly instead.
		s.closeUnresumable(st, "interrupted by server restart; resubmit to regenerate")
		return
	}
	var req FitRequest
	if err := json.Unmarshal(ad.Request, &req); err != nil {
		s.closeUnresumable(st, fmt.Sprintf("journaled request does not decode: %v", err))
		return
	}
	// The job kind names the method, and the request meets the rules a
	// fresh one does: a by-id mom or mle fit that an older binary
	// journaled is closed, not run.
	req.Method = strings.TrimPrefix(st.Kind, "fit/")
	if err := req.Normalize(); err != nil {
		s.closeUnresumable(st, "journaled request refused: "+err.Error())
		return
	}
	// The resumed job's tracer adopts the journaled trace id, so the
	// trace a client started before the crash finds the work that
	// finished after it; the originating request id rides along as an
	// attribute on the new root span.
	tr := trace.New(trace.Context{TraceID: ad.TraceID})
	root := tr.Start(nil, st.Kind,
		trace.String("resumed", "true"),
		trace.String("request_id", ad.RequestID))
	cached, charged := s.fitGates(req.Method)
	fj := fitJob{req: req, loadGraph: func() (*graph.Graph, error) {
		g, _, err := s.fitGraph(&req, root)
		return g, err
	}}
	if cached {
		fj.relKey = ad.ReleaseKey
	}
	spec := jobSpec{
		id:        st.Job,
		replayed:  true,
		dataset:   ad.Dataset,
		requestID: ad.RequestID,
		traceID:   ad.TraceID,
		tr:        tr,
		root:      root,
	}
	if charged && ad.Dataset != "" && ad.Planned != nil {
		// Re-issue the admission debit under the journaled spend token.
		// When the journal holds the debited record the token is provably
		// in the ledger and this is a no-op — even against an exhausted
		// account; when the crash fell between debit and record, the
		// token makes this the one real debit.
		spec.planned, spec.token = ad.Planned, ad.Token
		if spec.token == "" {
			spec.token = st.Job
		}
	}
	j, _, err := s.admitFit(spec, fj, func(key release.Key) bool {
		// Cache-first: the release-cache Put precedes the done record,
		// so a crash in between leaves finished, paid-for work. Serve
		// it; recomputing would waste the compute (the debit already
		// covers this exact release). An entry a fresh fit would not
		// serve is a miss.
		e, _ := s.opts.Releases.Get(key)
		_, ok := DecodeRelease(e)
		if ok {
			j := &job{id: st.Job, kind: st.Kind, cancel: func() {}, status: StatusDone, result: json.RawMessage(e.Payload)}
			s.register(j)
			s.journalTerminal(j, true)
		}
		return ok
	})
	switch {
	case j != nil:
		s.met.resumedJobs.Inc()
	case err != nil:
		// A resume skips the queue cap and nothing drains during New, so
		// only the debit refuses: it never landed and the budget is
		// gone. Closing the job is the invariant's explicit-failure arm,
		// with no debit left dangling.
		s.closeUnresumable(st, fmt.Sprintf("budget unavailable at resume: %v", err))
	}
}

// closeUnresumable journals an explicit failure for a job that cannot
// run again and registers it as terminal history — the "never
// silence" arm of the serving invariant.
func (s *Server) closeUnresumable(st *journal.JobState, msg string) {
	j := &job{
		id:     st.Job,
		kind:   st.Kind,
		cancel: func() {},
		status: StatusFailed,
		errMsg: msg,
	}
	s.register(j)
	s.journalTerminal(j, true)
}

// register adds an already-terminal job to the table (replay paths).
func (s *Server) register(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
}

// jobNumber extracts N from a "job-N" id.
func jobNumber(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}
