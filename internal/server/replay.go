package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"

	"dpkron/internal/dp"
	"dpkron/internal/graph"
	"dpkron/internal/journal"
	"dpkron/internal/pipeline"
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

// resume restarts one unfinished journaled job, or closes it with a
// journaled failure when it cannot run again.
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
	method := strings.TrimPrefix(st.Kind, "fit/")
	var req FitRequest
	if err := json.Unmarshal(ad.Request, &req); err != nil {
		s.closeUnresumable(st, fmt.Sprintf("journaled request does not decode: %v", err))
		return
	}
	useCache := s.opts.Releases != nil && method == "private" && ad.ReleaseKey != nil
	if useCache {
		// Cache-first: the release-cache Put precedes the done record,
		// so a crash in between leaves finished, paid-for work. Serve
		// it; recomputing would waste the compute (the debit already
		// covers this exact release).
		if e, ok := s.opts.Releases.Get(*ad.ReleaseKey); ok {
			j := &job{
				id:     st.Job,
				kind:   st.Kind,
				cancel: func() {},
				status: StatusDone,
				result: json.RawMessage(e.Payload),
			}
			s.register(j)
			s.journalTerminal(j, true)
			return
		}
	}
	// Re-issue the admission debit under the journaled spend token.
	// When the journal holds the debited record the token is provably
	// in the ledger and this is a no-op — even against an exhausted
	// account; when the crash fell between debit and record, the token
	// makes this the one real debit. A genuine refusal (the debit never
	// landed and the budget is gone) closes the job as failed: the
	// invariant's explicit-failure arm, with no debit left dangling.
	// As on the HTTP path, the account is read once after the debit for
	// the result's remaining budget.
	var remaining *dp.Budget
	if s.opts.Ledger != nil && method == "private" && ad.Dataset != "" && ad.Planned != nil {
		tok := ad.Token
		if tok == "" {
			tok = st.Job
		}
		if err := s.opts.Ledger.SpendToken(ad.Dataset, *ad.Planned, tok); err != nil {
			s.closeUnresumable(st, fmt.Sprintf("budget unavailable at resume: %v", err))
			return
		}
		_ = s.opts.Journal.Append(journal.Record{Job: st.Job, State: journal.StateDebited}, false)
		rem := s.opts.Ledger.Remaining(ad.Dataset)
		remaining = &rem
	}
	// The resumed job's tracer adopts the journaled trace id, so the
	// trace a client started before the crash finds the work that
	// finished after it; the originating request id rides along as an
	// attribute on the new root span.
	tr := trace.New(trace.Context{TraceID: ad.TraceID})
	root := tr.Start(nil, st.Kind,
		trace.String("resumed", "true"),
		trace.String("request_id", ad.RequestID))
	fj := fitJob{
		req:       req,
		method:    method,
		dataset:   ad.Dataset,
		remaining: remaining,
		useCache:  useCache,
		root:      root,
		loadGraph: func() (*graph.Graph, error) {
			dsp := root.Child("dataset-load")
			defer dsp.End()
			if req.DatasetID != "" && len(req.Edges) == 0 && req.EdgeList == "" {
				if s.opts.Datasets == nil {
					return nil, fmt.Errorf("job references stored dataset %s but the server has no dataset store", req.DatasetID)
				}
				return s.opts.Datasets.Load(req.DatasetID)
			}
			return req.graph()
		},
	}
	if useCache {
		fj.relKey = *ad.ReleaseKey
	}
	fn := s.fitFn(fj)
	spec := jobSpec{
		kind:      st.Kind,
		id:        st.Job,
		replayed:  true,
		fn:        fn,
		requestID: ad.RequestID,
		traceID:   ad.TraceID,
		tr:        tr,
		root:      root,
	}
	var j *job
	var msg string
	if useCache {
		// Re-register the single flight so identical requests arriving
		// after the restart join the resumed job instead of debiting a
		// second run.
		fp := ad.ReleaseKey.Fingerprint()
		inner := fn
		spec.fn = func(run *pipeline.Run) (any, error) {
			defer s.forgetFlight(fp)
			return inner(run)
		}
		s.flightMu.Lock()
		j, _, msg = s.submit(spec)
		if j != nil {
			s.flights[fp] = j
		}
		s.flightMu.Unlock()
	} else {
		j, _, msg = s.submit(spec)
	}
	if j == nil {
		s.closeUnresumable(st, "resume refused: "+msg)
		return
	}
	s.met.resumedJobs.Inc()
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
