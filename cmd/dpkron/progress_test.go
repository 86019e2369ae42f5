package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dpkron/internal/pipeline"
	"dpkron/internal/trace"
)

// TestStageSinkPrintsStageRecord drives the in-process -progress sink
// with a stage record on an injected clock: the lines come from the
// shared [stage] renderer, and a done line's seconds are the stage
// span's duration as the record's Stages reports it. A stage that runs
// again is announced and timed again.
func TestStageSinkPrintsStageRecord(t *testing.T) {
	clock := time.Unix(0, 0)
	ss := trace.New(trace.Context{}).WithClock(func() time.Time { return clock }).StageSpans(nil)
	var out strings.Builder
	sink := stageSink(&out, ss)

	const stage = "algorithm1/triangle-release"
	sink(pipeline.Event{Stage: stage, Frac: 0})
	clock = clock.Add(1234 * time.Millisecond)
	sink(pipeline.Event{Stage: stage, Frac: 0.5})
	sink(pipeline.Event{Stage: stage, Frac: 1})
	clock = clock.Add(time.Second) // a closed span's duration is final
	st := ss.Stages()
	if len(st) != 1 || st[0].Seconds != 1.234 {
		t.Fatalf("stage record = %+v, want one stage of 1.234 s", st)
	}
	want := "[stage] " + stage + " ...\n" +
		"[stage] " + stage + "  50%\n" +
		fmt.Sprintf("[stage] %s done (%.3fs)\n", stage, st[0].Seconds)
	if out.String() != want {
		t.Fatalf("progress output:\n%s\nwant:\n%s", out.String(), want)
	}

	out.Reset()
	sink(pipeline.Event{Stage: "features", Frac: 0})
	clock = clock.Add(250 * time.Millisecond)
	sink(pipeline.Event{Stage: "features", Frac: 1})
	sink(pipeline.Event{Stage: "features", Frac: 0})
	clock = clock.Add(500 * time.Millisecond)
	sink(pipeline.Event{Stage: "features", Frac: 1})
	want = "[stage] features ...\n" +
		"[stage] features done (0.250s)\n" +
		"[stage] features ...\n" +
		"[stage] features done (0.500s)\n"
	if out.String() != want {
		t.Fatalf("repeated stage output:\n%s\nwant:\n%s", out.String(), want)
	}
}
