package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dpkron/internal/pipeline"
)

// TestProgressSinkReportsElapsed drives the -progress sink with an
// injected clock: a done line carries the stage's elapsed time, and the
// per-stage start times stay bounded when stages never complete.
func TestProgressSinkReportsElapsed(t *testing.T) {
	var out strings.Builder
	clock := time.Unix(0, 0)
	sink := progressSink(&out, func() time.Time { return clock })

	sink(pipeline.Event{Stage: "algorithm1/triangle-release", Frac: 0})
	clock = clock.Add(1230 * time.Millisecond)
	sink(pipeline.Event{Stage: "algorithm1/triangle-release", Frac: 0.5})
	sink(pipeline.Event{Stage: "algorithm1/triangle-release", Frac: 1})
	want := "[stage] algorithm1/triangle-release ...\n" +
		"[stage] algorithm1/triangle-release  50%\n" +
		"[stage] algorithm1/triangle-release done (1.23s)\n"
	if out.String() != want {
		t.Fatalf("progress output:\n%s\nwant:\n%s", out.String(), want)
	}

	// Thousands of stages that start and never finish (cancelled jobs
	// of a long-lived server) must not pin their start times forever:
	// after the cap clears them, a late done line still renders.
	for i := 0; i < 5000; i++ {
		sink(pipeline.Event{Stage: fmt.Sprintf("job-%d/kronmom", i), Frac: 0})
	}
	out.Reset()
	sink(pipeline.Event{Stage: "job-0/kronmom", Frac: 1})
	if got := out.String(); got != "[stage] job-0/kronmom done\n" {
		t.Fatalf("done line for an evicted start = %q", got)
	}
	clock = clock.Add(2 * time.Second)
	sink(pipeline.Event{Stage: "job-4999/kronmom", Frac: 1})
	if got := out.String(); !strings.HasSuffix(got, "[stage] job-4999/kronmom done (2.00s)\n") {
		t.Fatalf("done line for a retained start = %q", got)
	}
}
