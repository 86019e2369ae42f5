package journal

import (
	"time"

	"dpkron/internal/obs"
)

// journalMetrics is the WAL's telemetry: appends by state and the
// fsync latency distribution — the synchronous disk wait every
// admission and terminal record puts on the serving path. The zero
// value no-ops.
type journalMetrics struct {
	appends *obs.CounterVec
	fsync   *obs.Histogram
}

// Instrument registers the journal's metrics on reg. Call once,
// before serving traffic; a nil reg leaves the journal
// uninstrumented. State labels come from the fixed State* set.
func (j *Journal) Instrument(reg *obs.Registry) {
	j.met = journalMetrics{
		appends: reg.CounterVec("dpkron_journal_appends_total", "Journal records appended, by job state.", "state"),
		fsync:   reg.Histogram("dpkron_journal_fsync_seconds", "Latency of journal fsyncs (admission and terminal records).", obs.FsyncBuckets),
	}
}

// observeFsync records one fsync's duration.
func (m journalMetrics) observeFsync(d time.Duration) {
	m.fsync.Observe(d.Seconds())
}
