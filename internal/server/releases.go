package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"slices"

	"dpkron/internal/core"
	"dpkron/internal/release"
)

// CachedFitResult is the response payload for a fit answered from the
// release cache: the memoized FitResult exactly as stored (original
// initiator, receipt and spend — post-processing is free, so the
// historical answer is the answer), flattened alongside the cache
// markers. Remaining is absent: a hit never touches the ledger, so
// there is no account state to report.
type CachedFitResult struct {
	FitResult
	// Cached marks the result as served from the release cache.
	Cached bool `json:"cached"`
	// Release is the cache entry's fingerprint ("rel-..."), resolvable
	// via GET /v1/releases/{id}.
	Release string `json:"release"`
}

// PrivateFitResult converts a completed Algorithm 1 run into the fit
// API's result payload — the same shape the release cache persists,
// so a CLI fit and a server fit memoize interchangeably
// (TestCLIServerShareReleases in cmd/dpkron). Remaining is left unset;
// the server's cold path fills it after the ledger debit.
//
// Every field is copied out of res: a pointer into res would keep the
// whole core.Result — including its released degree sequence — alive
// for as long as the job history retains the FitResult.
func PrivateFitResult(res *core.Result, dataset string) FitResult {
	objective, privacy, spent := res.Moment.Objective, res.Privacy, res.Receipt.Total
	receipt := res.Receipt
	receipt.Charges = slices.Clone(res.Receipt.Charges)
	return FitResult{
		Method:    "private",
		Initiator: InitiatorJSON{res.Init.A, res.Init.B, res.Init.C},
		K:         res.K,
		Objective: &objective,
		Features:  &FeaturesJSON{res.Features.E, res.Features.H, res.Features.T, res.Features.Delta},
		Privacy:   &privacy,
		Spent:     &spent,
		Receipt:   &receipt,
		Dataset:   dataset,
	}
}

// DecodeRelease reads a release-cache entry, nil on a miss, as the
// private fit it memoized. ok is false — the entry is a miss, to
// recompute — unless its payload decodes as a FitResult carrying the
// guarantee and the receipt every private release has. The server and
// `dpkron fit` both read entries through it, so they agree on what a
// hit is.
func DecodeRelease(e *release.Entry) (fr FitResult, ok bool) {
	if e == nil || json.Unmarshal(e.Payload, &fr) != nil {
		return FitResult{}, false
	}
	return fr, fr.Privacy != nil && fr.Receipt != nil
}

// serveReleaseLocked answers a private fit request from the release
// cache or an identical in-flight job, reporting whether the request
// was handled. Callers hold s.flightMu, which makes the
// miss-check-then-submit sequence in admitFit atomic: between "no
// entry, no flight" and the debit-bearing submit, no concurrent
// identical request can slip in a second debit.
//
// A cache hit is registered as an already-terminal job (visible in
// GET /v1/jobs, pollable by id) and answered 200 with the stored
// release plus cached/release markers — zero ledger debit, zero noise
// draws, zero queue slots. An in-flight identical fit coalesces: the
// caller receives the same job (202, or 200 once done), so every
// waiter observes the same receipt-bearing result.
func (s *Server) serveReleaseLocked(w http.ResponseWriter, key release.Key) bool {
	e, _ := s.opts.Releases.Get(key)
	if fr, ok := DecodeRelease(e); ok {
		j := s.completedJob("fit/private", CachedFitResult{FitResult: fr, Cached: true, Release: e.Fingerprint})
		writeJSON(w, http.StatusOK, j.view())
		return true
	}
	if j := s.flights[key.Fingerprint()]; j != nil {
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		if st == StatusDone || !terminalStatus(st) {
			status := http.StatusAccepted
			if st == StatusDone {
				status = http.StatusOK
			}
			s.met.coalesced.Inc()
			writeJSON(w, status, j.view())
			return true
		}
		// The previous flight failed or was cancelled without producing a
		// release; fall through and let this request start a fresh one.
	}
	return false
}

// requireReleases returns the configured release cache or answers 404.
func (s *Server) requireReleases(w http.ResponseWriter) *release.Cache {
	if s.opts.Releases == nil {
		writeError(w, http.StatusNotFound, "no release cache configured (start the server with -release-cache)")
		return nil
	}
	return s.opts.Releases
}

func releaseError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, release.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, release.ErrCorrupt):
		// An inspectable-but-damaged entry: the fit path would evict and
		// recompute it; introspection reports it honestly.
		writeError(w, http.StatusNotFound, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleReleaseList serves GET /v1/releases: every cached release's
// key and integrity metadata, payloads stripped.
func (s *Server) handleReleaseList(w http.ResponseWriter, r *http.Request) {
	c := s.requireReleases(w)
	if c == nil {
		return
	}
	list, err := c.List()
	if err != nil {
		releaseError(w, err)
		return
	}
	if list == nil {
		list = []release.Entry{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"releases": list})
}

// handleRelease serves GET /v1/releases/{id}: one entry with its
// stored payload.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	c := s.requireReleases(w)
	if c == nil {
		return
	}
	e, err := c.Info(r.PathValue("id"))
	if err != nil {
		releaseError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, e)
}
