package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCLI compiles the command once per test binary.
func buildCLI(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(t.TempDir(), "dpkron")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build failed: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dpkron %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)

	// datasets lists the registry.
	out := run(t, bin, "datasets")
	for _, want := range []string{"CA-GrQc-like", "AS20-like", "CA-HepTh-like", "Synthetic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("datasets output missing %q:\n%s", want, out)
		}
	}

	// generate -> stats -> fit round trip on a small graph.
	dir := t.TempDir()
	edge := filepath.Join(dir, "g.txt")
	out = run(t, bin, "generate", "-a", "0.99", "-b", "0.55", "-c", "0.35",
		"-k", "9", "-seed", "3", "-out", edge)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("generate output: %s", out)
	}

	out = run(t, bin, "stats", "-in", edge)
	for _, want := range []string{"nodes: 512", "edges:", "triangles:", "effective diameter"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}

	out = run(t, bin, "fit", "-in", edge, "-method", "mom", "-k", "9")
	if !strings.Contains(out, "KronMom initiator:") {
		t.Fatalf("mom fit output: %s", out)
	}

	out = run(t, bin, "fit", "-in", edge, "-method", "private", "-eps", "1", "-delta", "0.05")
	for _, want := range []string{"private initiator:", "(1, 0.05)-DP", "budget:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("private fit output missing %q:\n%s", want, out)
		}
	}

	out = run(t, bin, "fit", "-in", edge, "-method", "mle", "-k", "9")
	if !strings.Contains(out, "KronFit initiator:") {
		t.Fatalf("mle fit output: %s", out)
	}

	// ssgrowth prints the growth table.
	out = run(t, bin, "ssgrowth", "-kmin", "6", "-kmax", "8")
	if !strings.Contains(out, "SS_beta") {
		t.Fatalf("ssgrowth output: %s", out)
	}

	// sscompare prints the comparison table.
	out = run(t, bin, "sscompare", "-kmin", "6", "-kmax", "7")
	if !strings.Contains(out, "SS(er)") {
		t.Fatalf("sscompare output: %s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"fit"},                         // missing -in
		{"stats"},                       // missing -in
		{"fit", "-in", "/nonexistent"},  // unreadable input
		{"figure", "-dataset", "bogus"}, // unknown dataset
		{"nonsense"},                    // unknown command
	} {
		cmd := exec.Command(bin, args...)
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Errorf("dpkron %v: expected failure, got:\n%s", args, out)
		}
	}
}

// exitCode runs the binary and returns its exit status plus combined
// output (-1 when it cannot be determined).
func exitCode(t *testing.T, bin string, stdin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("dpkron %v: %v\n%s", args, err, out)
	return -1, ""
}

// TestCLIUsageExitCodes: flag-parse errors and missing required flags
// exit 2 with usage text; runtime failures exit 1.
func TestCLIUsageExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"fit"}, 2},                             // missing -in
		{[]string{"stats"}, 2},                           // missing -in
		{[]string{"fit", "-bogusflag"}, 2},               // unknown flag
		{[]string{"generate", "-k", "notanint"}, 2},      // malformed value
		{[]string{"nonsense"}, 2},                        // unknown command
		{[]string{"fit", "-in", "/nonexistent"}, 1},      // runtime error
		{[]string{"figure", "-dataset", "bogus"}, 1},     // runtime error
		{[]string{"fit", "-in", "-", "-method", "x"}, 2}, // bad enum value
		// The shared ε/δ flag contract: every subcommand rejects
		// non-positive/NaN eps and delta outside [0, 1) uniformly, at
		// flag level (exit 2), via dp.Budget.Validate.
		{[]string{"fit", "-in", "-", "-eps", "-1"}, 2},
		{[]string{"fit", "-in", "-", "-eps", "NaN"}, 2},
		{[]string{"fit", "-in", "-", "-delta", "1.5"}, 2},
		{[]string{"fit", "-in", "-", "-method", "mom", "-eps", "0"}, 2},
		{[]string{"table1", "-eps", "0"}, 2},
		{[]string{"figure", "-delta", "-0.1"}, 2},
		{[]string{"sweep", "-delta", "2"}, 2},
		{[]string{"ssgrowth", "-eps", "-3"}, 2},
		{[]string{"sscompare", "-delta", "1"}, 2},
		{[]string{"budget", "set", "-ledger", "/tmp/x.json", "-dataset", "d", "-eps", "-1"}, 2},
		{[]string{"budget", "bogus", "-ledger", "/tmp/x.json"}, 2},
		{[]string{"budget", "show"}, 2},  // missing -ledger
		{[]string{"serve", "-pprof"}, 2}, // profiles live on -metrics-addr only
	} {
		code, out := exitCode(t, bin, "0 1\n", tc.args...)
		if code != tc.want {
			t.Errorf("dpkron %v: exit %d, want %d\n%s", tc.args, code, tc.want, out)
		}
		if tc.want == 2 && !strings.Contains(out, "Usage") && !strings.Contains(out, "-workers") && !strings.Contains(out, "commands:") {
			t.Errorf("dpkron %v: exit-2 output lacks usage text:\n%s", tc.args, out)
		}
	}
}

// TestCLIStdinAndPipelineFlags covers -in -, -progress, and -timeout.
func TestCLIStdinAndPipelineFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)

	// A small deterministic edge list on stdin.
	gen := run(t, bin, "generate", "-a", "0.95", "-b", "0.5", "-c", "0.3", "-k", "7", "-seed", "2")

	code, out := exitCode(t, bin, gen, "stats", "-in", "-")
	if code != 0 || !strings.Contains(out, "nodes: 128") {
		t.Fatalf("stats -in -: exit %d\n%s", code, out)
	}

	code, out = exitCode(t, bin, gen, "fit", "-in", "-", "-method", "mom", "-k", "7", "-progress")
	if code != 0 {
		t.Fatalf("fit -in - -progress: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "[stage] features ...") || !strings.Contains(out, "[stage] kronmom done") {
		t.Errorf("fit -progress missing stage lines:\n%s", out)
	}
	if !strings.Contains(out, "KronMom initiator:") {
		t.Errorf("fit -in - lost its result:\n%s", out)
	}

	// An unmeetable timeout aborts with the context error and exit 1.
	code, out = exitCode(t, bin, "", "table1", "-timeout", "1ms")
	if code != 1 || !strings.Contains(out, "context deadline exceeded") {
		t.Errorf("table1 -timeout 1ms: exit %d, want 1 with deadline error\n%s", code, out)
	}
}

// TestCLIBudgetWorkflow walks the ledger lifecycle end to end: set a
// budget, fit against it until exhaustion, observe the refusal, show
// the spend, reset, and fit again.
func TestCLIBudgetWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	edge := filepath.Join(dir, "g.txt")
	ledger := filepath.Join(dir, "ledger.json")
	run(t, bin, "generate", "-a", "0.95", "-b", "0.5", "-c", "0.3", "-k", "8", "-seed", "2", "-out", edge)

	// Default-deny: fitting against a ledger with no configured budget
	// is refused (exit 1, not a crash) and names the fingerprint id.
	code, out := exitCode(t, bin, "", "fit", "-in", edge, "-ledger", ledger, "-eps", "0.2", "-delta", "0.01")
	if code != 1 || !strings.Contains(out, "budget exhausted") || !strings.Contains(out, "ds-") {
		t.Fatalf("unbudgeted ledger fit: exit %d\n%s", code, out)
	}

	// Budget for exactly two (0.2, 0.01) fits under dataset "mygraph".
	out = run(t, bin, "budget", "set", "-ledger", ledger, "-dataset", "mygraph", "-eps", "0.45", "-delta", "0.05")
	if !strings.Contains(out, "budget set to (0.45, 0.05)-DP") {
		t.Fatalf("budget set output: %s", out)
	}
	for i := 0; i < 2; i++ {
		out = run(t, bin, "fit", "-in", edge, "-ledger", ledger, "-dataset", "mygraph",
			"-eps", "0.2", "-delta", "0.01", "-progress")
		if !strings.Contains(out, "ledger: dataset mygraph, remaining") {
			t.Fatalf("fit %d output lacks ledger line:\n%s", i, out)
		}
		// The -progress summary reports the receipt total.
		if !strings.Contains(out, "[budget] spent (0.2, 0.01)-DP across 2 mechanism charges") {
			t.Fatalf("fit %d output lacks budget summary:\n%s", i, out)
		}
	}

	// Third fit: remaining (0.05, 0.03) cannot cover (0.2, 0.01).
	code, out = exitCode(t, bin, "", "fit", "-in", edge, "-ledger", ledger, "-dataset", "mygraph",
		"-eps", "0.2", "-delta", "0.01")
	if code != 1 || !strings.Contains(out, "budget exhausted") {
		t.Fatalf("over-budget fit: exit %d\n%s", code, out)
	}

	// show reports the account; reset reopens it.
	out = run(t, bin, "budget", "show", "-ledger", ledger, "-dataset", "mygraph")
	if !strings.Contains(out, "spent (0.4, 0.02)-DP") || !strings.Contains(out, "receipts 2") {
		t.Fatalf("budget show output: %s", out)
	}
	run(t, bin, "budget", "reset", "-ledger", ledger, "-dataset", "mygraph")
	out = run(t, bin, "fit", "-in", edge, "-ledger", ledger, "-dataset", "mygraph",
		"-eps", "0.2", "-delta", "0.01")
	if !strings.Contains(out, "private initiator:") {
		t.Fatalf("post-reset fit output: %s", out)
	}
}

// TestCLIAuditV1Conversion: a v1 JSON ledger is converted to the
// append-only log the first time it is opened, and `dpkron audit` and
// `budget show` report exactly what the v1 code reported on it.
// testdata/ledger-v1.json was written by the v1 ledger (token-bearing
// and plain spends, a reset, a budget with no spends) and
// testdata/ledger-v1.golden holds the v1 binary's output for the
// commands below.
func TestCLIAuditV1Conversion(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	v1, err := os.ReadFile(filepath.Join("testdata", "ledger-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ledger-v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(ledger, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	report := func() string {
		var b strings.Builder
		for _, ds := range []string{"ds-a", "ds-b", "ds-c"} {
			b.WriteString(run(t, bin, "audit", ds, "-ledger", ledger))
		}
		b.WriteString(run(t, bin, "budget", "show", "-ledger", ledger))
		return b.String()
	}
	// The first audit converts; the second reads the log it left.
	for i := 0; i < 2; i++ {
		if got := report(); got != string(want) {
			t.Fatalf("report #%d differs from the v1 report:\n%s\nwant:\n%s", i+1, got, want)
		}
		data, err := os.ReadFile(ledger)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "DPKL") {
			t.Fatalf("ledger after report #%d is not a log: %.40q", i+1, data)
		}
	}
}

// TestCLIServeEndToEnd boots the real service, submits a generate job
// over HTTP, polls it to completion, and exercises cancel.
func TestCLIServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-max-jobs", "1", "-workers", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()

	// The serve banner names the bound address.
	var base string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			base = strings.Fields(line[i:])[0]
			break
		}
	}
	if base == "" {
		t.Fatalf("serve banner with address not seen")
	}
	go io.Copy(io.Discard, stderr)

	post := func(path, body string) map[string]any {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	get := func(path string) map[string]any {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	submitted := post("/v1/generate", `{"a":0.9,"b":0.5,"c":0.3,"k":7,"seed":2}`)
	id, _ := submitted["id"].(string)
	if id == "" {
		t.Fatalf("no job id: %v", submitted)
	}
	deadline := time.Now().Add(60 * time.Second)
	var job map[string]any
	for {
		job = get("/v1/jobs/" + id)
		if s := job["status"]; s == "done" || s == "failed" || s == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %v", job)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job["status"] != "done" {
		t.Fatalf("job ended %v: %v", job["status"], job)
	}
	result := job["result"].(map[string]any)
	if result["nodes"].(float64) != 128 {
		t.Errorf("nodes = %v, want 128", result["nodes"])
	}

	// Cancel flow: submit a long job, delete it, observe cancelled.
	long := post("/v1/generate", `{"a":0.99,"b":0.55,"c":0.35,"k":13,"seed":5,"method":"exact","omit_edges":true}`)
	longID := long["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+longID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		job = get("/v1/jobs/" + longID)
		if job["status"] == "cancelled" {
			break
		}
		if s := job["status"]; s == "done" || s == "failed" {
			t.Fatalf("long job ended %v, want cancelled", s)
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never landed: %v", job)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCLIDatasetWorkflow walks the store lifecycle end to end:
// generate an edge list, import it (plain and gzipped), list/info,
// fit and stats by stored id, export, and remove.
func TestCLIDatasetWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	edge := filepath.Join(dir, "g.txt")
	store := filepath.Join(dir, "store")
	run(t, bin, "generate", "-a", "0.95", "-b", "0.5", "-c", "0.3", "-k", "8", "-seed", "2", "-out", edge)

	// Import; the printed id is the content fingerprint.
	out := run(t, bin, "dataset", "import", "-store", store, "-in", edge, "-name", "toy")
	if !strings.Contains(out, "imported ds-") {
		t.Fatalf("import output: %s", out)
	}
	id := strings.TrimSuffix(strings.Fields(out)[1], ":")
	if !strings.HasPrefix(id, "ds-") {
		t.Fatalf("no dataset id in output: %s", out)
	}

	// A gzipped copy of the same list imports to the same id (content-
	// addressed), exercising transparent gzip on the import path.
	gzPath := filepath.Join(dir, "g.txt.gz")
	raw, err := os.ReadFile(edge)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	gw := gzip.NewWriter(&buf)
	if _, err := gw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gzPath, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, bin, "dataset", "import", "-store", store, "-in", gzPath)
	if !strings.Contains(out, id) {
		t.Fatalf("gzip import produced a different id:\n%s\nwant %s", out, id)
	}

	// list and info show the dataset.
	out = run(t, bin, "dataset", "list", "-store", store)
	if !strings.Contains(out, id) || !strings.Contains(out, "toy") {
		t.Fatalf("list output: %s", out)
	}
	out = run(t, bin, "dataset", "info", "-store", store, "-id", id)
	if !strings.Contains(out, "nodes:    256") || !strings.Contains(out, "source:   snap") ||
		!strings.Contains(out, "format:   v2") {
		t.Fatalf("info output: %s", out)
	}

	// stats and fit accept the stored id via -store; the stats must
	// agree with reading the original file (bit-identical load).
	fromFile := run(t, bin, "stats", "-in", edge)
	fromStore := run(t, bin, "stats", "-in", id, "-store", store)
	if fromFile != fromStore {
		t.Fatalf("stats differ between file and store:\n--- file\n%s--- store\n%s", fromFile, fromStore)
	}
	out = run(t, bin, "fit", "-in", id, "-store", store, "-method", "mom", "-k", "8")
	if !strings.Contains(out, "KronMom initiator:") {
		t.Fatalf("fit by id output: %s", out)
	}

	// Stats on the gzipped file directly (transparent gzip in loadGraph).
	if gzStats := run(t, bin, "stats", "-in", gzPath); gzStats != fromFile {
		t.Fatalf("gzipped stats differ:\n%s", gzStats)
	}

	// export reproduces a graph with the same fingerprint.
	exported := filepath.Join(dir, "export.txt")
	run(t, bin, "dataset", "export", "-store", store, "-id", id, "-out", exported)
	out = run(t, bin, "dataset", "import", "-store", store, "-in", exported)
	if !strings.Contains(out, id) {
		t.Fatalf("exported list re-imports to a different id:\n%s", out)
	}

	// rm removes it; subsequent info fails (exit 1).
	run(t, bin, "dataset", "rm", "-store", store, "-id", id)
	if code, _ := exitCode(t, bin, "", "dataset", "info", "-store", store, "-id", id); code != 1 {
		t.Fatalf("info after rm: exit %d, want 1", code)
	}
}

// TestCLIDatasetUsageErrors: the dataset subcommand obeys the shared
// exit-2 usage contract.
func TestCLIDatasetUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"dataset"},                               // missing action
		{"dataset", "bogus", "-store", "/tmp/s"},  // unknown action
		{"dataset", "list"},                       // missing -store
		{"dataset", "import", "-store", "/tmp/s"}, // missing -in
		{"dataset", "info", "-store", "/tmp/s"},   // missing -id
		{"dataset", "rm", "-store", "/tmp/s"},     // missing -id
		// The store writes one layout: no convert, no -format.
		{"dataset", "convert", "-store", "/tmp/s", "-id", "ds-0011223344556677"},
		{"dataset", "import", "-store", "/tmp/s", "-in", "g.txt", "-format", "v1"},
	} {
		code, out := exitCode(t, bin, "", args...)
		if code != 2 {
			t.Errorf("dpkron %v: exit %d, want 2\n%s", args, code, out)
		}
	}
	// An id-shaped -in without -store is a runtime error with guidance.
	code, out := exitCode(t, bin, "", "fit", "-in", "ds-0011223344556677")
	if code != 1 || !strings.Contains(out, "-store") {
		t.Errorf("fit by id without -store: exit %d\n%s", code, out)
	}
}

// TestCLIServeWithStore boots the service with a store and walks
// upload → private fit-by-id over HTTP, sharing the store with the CLI.
// The HTTP view of the dataset is public fields only, and a non-private
// fit by id is refused.
func TestCLIServeWithStore(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	edge := filepath.Join(dir, "g.txt")
	run(t, bin, "generate", "-a", "0.95", "-b", "0.5", "-c", "0.3", "-k", "8", "-seed", "2", "-out", edge)
	out := run(t, bin, "dataset", "import", "-store", store, "-in", edge)
	id := strings.TrimSuffix(strings.Fields(out)[1], ":")

	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-max-jobs", "1", "-workers", "1", "-store", store)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()
	var base string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			base = strings.Fields(line[i:])[0]
			break
		}
	}
	if base == "" {
		t.Fatal("serve banner with address not seen")
	}
	go io.Copy(io.Discard, stderr)

	// The CLI-imported dataset is visible over HTTP...
	resp, err := http.Get(base + "/v1/datasets/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || meta["id"] != id {
		t.Fatalf("GET dataset: %d %v", resp.StatusCode, meta)
	}
	for _, private := range []string{"edges", "bytes"} {
		if _, ok := meta[private]; ok {
			t.Errorf("GET dataset carries %q: %v", private, meta)
		}
	}

	// ...refused to a non-private fit by id...
	resp, err = http.Post(base+"/v1/fit", "application/json",
		strings.NewReader(`{"method":"mom","k":8,"dataset_id":"`+id+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mom fit by id: %d, want 400", resp.StatusCode)
	}

	// ...and privately fittable by id.
	resp, err = http.Post(base+"/v1/fit", "application/json",
		strings.NewReader(`{"method":"private","k":8,"dataset_id":"`+id+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	var submitted map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit by id: %d %v", resp.StatusCode, submitted)
	}
	jobID := submitted["id"].(string)
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		var job map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if s := job["status"]; s == "done" {
			break
		} else if s == "failed" || s == "cancelled" {
			t.Fatalf("fit by id ended %v: %v", s, job)
		}
		if time.Now().After(deadline) {
			t.Fatal("fit by id stuck")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCLICacheWorkflow drives the release cache end to end: a cold
// private fit memoizes its release, the identical fit is re-served
// without touching the ledger, `cache list|info|rm` manage the entries,
// and removal restores the recompute-and-debit behavior.
func TestCLICacheWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	edge := filepath.Join(dir, "g.txt")
	ledger := filepath.Join(dir, "ledger.json")
	cache := filepath.Join(dir, "cache")
	run(t, bin, "generate", "-a", "0.95", "-b", "0.5", "-c", "0.3", "-k", "8", "-seed", "2", "-out", edge)

	// Budget for exactly one (0.2, 0.01) fit.
	run(t, bin, "budget", "set", "-ledger", ledger, "-dataset", "mygraph", "-eps", "0.2", "-delta", "0.01")

	// Cold fit: debits the ledger and stores the release.
	fitArgs := []string{"fit", "-in", edge, "-ledger", ledger, "-dataset", "mygraph",
		"-eps", "0.2", "-delta", "0.01", "-seed", "5", "-release-cache", cache}
	// Its output is pinned byte for byte: cold and cache-served fits
	// share one renderer over the release payload.
	cold := run(t, bin, fitArgs...)
	golden, err := os.ReadFile(filepath.Join("testdata", "fit-private-cold.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if cold != string(golden) {
		t.Fatalf("cold fit output differs from testdata/fit-private-cold.golden:\ngot:\n%s\nwant:\n%s", cold, golden)
	}

	// The identical question again: served from cache at zero budget,
	// even though the ledger is now exhausted. It prints the cold fit's
	// lines, with the release line in place of the ledger line.
	hit := run(t, bin, fitArgs...)
	release, ok := strings.CutPrefix(hit, strings.TrimSuffix(cold, "  ledger: dataset mygraph, remaining (0, 0)-DP\n"))
	if !ok || !strings.HasPrefix(release, "  release: rel-") || !strings.HasSuffix(release, " (cached; no budget spent)\n") {
		t.Fatalf("cache hit output is not the cold fit's lines plus a release line:\ncold:\n%s\nhit:\n%s", cold, hit)
	}
	out := run(t, bin, "budget", "show", "-ledger", ledger, "-dataset", "mygraph")
	if !strings.Contains(out, "receipts 1") {
		t.Fatalf("cache hit debited the ledger:\n%s", out)
	}

	// A different question (new seed) is a miss and needs budget.
	code, out := exitCode(t, bin, "", append(fitArgs[:len(fitArgs):len(fitArgs)], "-seed", "6")...)
	if code != 1 || !strings.Contains(out, "budget exhausted") {
		t.Fatalf("different-seed fit: exit %d\n%s", code, out)
	}

	// cache list names the entry; grab its fingerprint.
	out = run(t, bin, "cache", "list", "-dir", cache)
	if !strings.Contains(out, "rel-") || !strings.Contains(out, "eps=0.2") {
		t.Fatalf("cache list output: %s", out)
	}
	rel := strings.Fields(out)[0]
	if !strings.HasPrefix(rel, "rel-") {
		t.Fatalf("cache list first field %q is not a fingerprint:\n%s", rel, out)
	}

	out = run(t, bin, "cache", "info", "-dir", cache, "-id", rel)
	for _, want := range []string{"fingerprint: " + rel, "eps:         0.2", "seed:        5", "payload:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cache info missing %q:\n%s", want, out)
		}
	}

	// rm forgets the release; the identical fit is a miss again and is
	// refused by the exhausted ledger.
	out = run(t, bin, "cache", "rm", "-dir", cache, "-id", rel)
	if !strings.Contains(out, "removed "+rel) {
		t.Fatalf("cache rm output: %s", out)
	}
	code, out = exitCode(t, bin, "", fitArgs...)
	if code != 1 || !strings.Contains(out, "budget exhausted") {
		t.Fatalf("post-rm fit: exit %d\n%s", code, out)
	}

	// Usage errors exit 2.
	for _, args := range [][]string{
		{"cache"},                                  // missing action
		{"cache", "frobnicate", "-dir", cache},     // unknown action
		{"cache", "list"},                          // missing -dir
		{"cache", "info", "-dir", cache},           // missing -id
		{"cache", "rm", "-dir", cache, "-id", rel}, // already removed -> exit 1
	} {
		code, out := exitCode(t, bin, "", args...)
		want := 2
		if len(args) > 1 && args[1] == "rm" {
			want = 1
		}
		if code != want {
			t.Fatalf("dpkron %v: exit %d, want %d\n%s", args, code, want, out)
		}
	}
}
