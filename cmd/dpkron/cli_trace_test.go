package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dpkron/internal/accountant"
	"dpkron/internal/graph"
)

// TestCLITraceAuditEndToEnd drives the whole tracing/audit surface
// through the compiled binary: a ledger-enforced, journaled server
// (which traces every job) runs one private fit; `job wait -progress` streams its stage
// transitions, `job trace` renders the waterfall with its audit
// events, `-chrome` saves a loadable trace-event file, and — after a
// graceful drain — `audit` replays ledger + journal into the
// chronological spend report naming the job that paid.
func TestCLITraceAuditEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	edge := filepath.Join(dir, "g.txt")
	run(t, bin, "generate", "-a", "0.95", "-b", "0.55", "-c", "0.3", "-k", "6", "-seed", "4", "-out", edge)
	data, err := os.ReadFile(edge)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(strings.NewReader(string(data)), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := accountant.DatasetID(g)
	ledger := filepath.Join(dir, "ledger.json")
	jnlPath := filepath.Join(dir, "journal.dpkj")
	run(t, bin, "budget", "set", "-ledger", ledger, "-dataset", ds, "-eps", "2", "-delta", "0.1")

	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-max-jobs", "1", "-workers", "2",
		"-ledger", ledger, "-journal", jnlPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}
	defer stop()
	var base string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "listening on") {
			if i := strings.Index(line, "http://"); i >= 0 {
				base = strings.Fields(line[i:])[0]
				break
			}
		}
	}
	if base == "" {
		t.Fatal("serve banner with address not seen")
	}
	go io.Copy(io.Discard, stderr)

	body, _ := json.Marshal(map[string]any{
		"method": "private", "eps": 0.3, "delta": 0.01, "k": 6, "seed": 2,
		"edgelist": string(data),
	})
	resp, err := http.Post(base+"/v1/fit", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var submitted map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id, _ := submitted["id"].(string)
	if id == "" {
		t.Fatalf("no job id: %v", submitted)
	}

	// wait -progress: terminal views retain per-stage state, so the
	// streamer prints at least the completed stages' done lines no
	// matter how polling interleaves with the run.
	out := run(t, bin, "job", "wait", "-server", base, "-id", id, "-progress", "-timeout", "2m")
	if !strings.Contains(out, "[stage] algorithm1/moment-fit done") {
		t.Fatalf("wait -progress did not stream stage transitions:\n%s", out)
	}
	if !strings.Contains(out, "status: done") {
		t.Fatalf("wait did not report completion:\n%s", out)
	}

	out = run(t, bin, "job", "trace", "-server", base, "-id", id)
	for _, want := range []string{
		"trace ", "algorithm1/degree-release", "algorithm1/moment-fit/kronmom",
		"ledger-debit", "accountant-debit", "admission", "queue-wait",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("job trace output missing %q:\n%s", want, out)
		}
	}

	chrome := filepath.Join(dir, "job.trace.json")
	run(t, bin, "job", "trace", "-server", base, "-id", id, "-chrome", chrome)
	ch, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var chromeFile struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ch, &chromeFile); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(chromeFile.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}

	// The build-info gauge is scrapeable alongside the other metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metrics), `dpkron_build_info{version="devel"`) {
		t.Fatalf("metrics lack dpkron_build_info:\n%.2000s", metrics)
	}

	// Drain, then audit offline: the report names the job and request
	// that spent the budget, chronologically.
	stop()
	out = run(t, bin, "audit", ds, "-ledger", ledger, "-journal", jnlPath)
	for _, want := range []string{
		"dataset " + ds, "#1", "running total", "job " + id, "request ", "trace ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("audit output missing %q:\n%s", want, out)
		}
	}

	if out := run(t, bin, "version"); !strings.Contains(out, "dpkron devel") {
		t.Fatalf("version output = %q", out)
	}
	// -ldflags injection is what CI release builds use.
	bin2 := filepath.Join(t.TempDir(), "dpkron-versioned")
	build := exec.Command("go", "build", "-ldflags", "-X main.version=v9.9.9-test", "-o", bin2, ".")
	build.Env = os.Environ()
	if outb, err := build.CombinedOutput(); err != nil {
		t.Fatalf("versioned build failed: %v\n%s", err, outb)
	}
	if out := run(t, bin2, "version"); !strings.Contains(out, "dpkron v9.9.9-test") {
		t.Fatalf("versioned binary reports %q", out)
	}
}
