// Command dpkron is the CLI for the differentially private stochastic
// Kronecker graph estimator. It regenerates the paper's experiments and
// provides the end-user workflow: fit (private or baseline), generate
// synthetic graphs, inspect statistics, and run the estimation service.
//
// Usage:
//
//	dpkron table1  [-eps E] [-delta D] [-seed S]
//	dpkron figure  -dataset NAME [-expected N] [-csv FILE] [-plot]
//	dpkron fit     -in FILE|-|ID [-store DIR] [-method private|mom|mle] [-eps E] [-delta D] [-k K] [-release-cache DIR]
//	dpkron generate -a A -b B -c C -k K [-out FILE | -store DIR [-name S]] [-method exact|balldrop]
//	dpkron stats   -in FILE|-|ID [-store DIR]
//	dpkron sweep   [-dataset NAME] [-trials N]
//	dpkron ssgrowth [-kmin K] [-kmax K]
//	dpkron sscompare [-kmin K] [-kmax K]
//	dpkron serve   [-addr HOST:PORT] [-max-jobs N] [-ledger FILE] [-store DIR] [-release-cache DIR] [-journal FILE] [-drain-timeout D] [-metrics-addr HOST:PORT] [-log-format text|json] [-log-level L]
//	dpkron job     <list|show|wait|trace|cancel> -server URL [-id ID] [-v] [-progress] [-chrome FILE]
//	dpkron audit   <dataset> -ledger FILE [-journal FILE]
//	dpkron budget  <show|set|reset> -ledger FILE [-dataset ID] [-eps E] [-delta D]
//	dpkron dataset <import|list|info|export|rm> -store DIR [-in FILE|-] [-id ID] [-name S] [-out FILE]
//	dpkron cache   <list|info|rm> -dir DIR [-id ID]
//	dpkron datasets
//
// Every long-running command accepts the shared pipeline flags:
// -workers bounds parallelism (results are identical for any value),
// -timeout aborts the run after a duration, and -progress streams
// pipeline stage events to stderr. Commands reading -in accept "-" for
// stdin, transparently gunzip (.txt.gz), and — given -store — resolve
// stored dataset ids. Flag errors and missing required flags exit with
// status 2 after printing usage; runtime failures exit 1.
//
// serve with -journal records every job transition in a durable,
// checksummed log: a crashed server restarted on the same journal
// resumes interrupted private fits without spending budget twice, and
// SIGINT/SIGTERM drains gracefully — new work is refused with 503 +
// Retry-After while running jobs get -drain-timeout to finish (then
// are cancelled, journaled, and the process exits 0).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/experiments"
	"dpkron/internal/journal"
	"dpkron/internal/obs"
	"dpkron/internal/pipeline"
	"dpkron/internal/release"
	"dpkron/internal/server"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
	"dpkron/internal/textplot"
)

// version identifies the build; release builds overwrite it with
//
//	go build -ldflags "-X main.version=v1.2.3"
//
// and it surfaces in `dpkron version` and the server's
// dpkron_build_info metric.
var version = "devel"

// errUsage marks a user error that has already been reported together
// with usage text; main turns it into exit status 2.
var errUsage = errors.New("usage error")

// usagef reports a usage problem on stderr, prints the command's flag
// defaults, and returns errUsage.
func usagef(fs *flag.FlagSet, format string, args ...any) error {
	fmt.Fprintf(os.Stderr, "dpkron %s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	fs.Usage()
	return errUsage
}

// parse runs fs.Parse with ContinueOnError semantics mapped onto the
// command error contract: -h/-help exits 0, malformed flags exit 2.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		// flag already printed the error and usage.
		return errUsage
	}
	return nil
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// pipeFlags registers the shared pipeline flags: worker budget, wall
// deadline, and stage-progress rendering.
type pipeFlags struct {
	workers  *int
	timeout  *time.Duration
	progress *bool
}

func addPipeFlags(fs *flag.FlagSet) pipeFlags {
	return pipeFlags{
		workers: fs.Int("workers", runtime.GOMAXPROCS(0),
			"goroutines for parallel sampling/counting/fitting (results are worker-count invariant)"),
		timeout: fs.Duration("timeout", 0,
			"abort the command after this duration (e.g. 90s, 5m; 0 = no limit)"),
		progress: fs.Bool("progress", false,
			"print pipeline stage progress lines to stderr"),
	}
}

// logFlags are the structured-logging flags shared by serve and fit.
type logFlags struct {
	format *string
	level  *string
}

// addLogFlags registers -log-format and -log-level. serve defaults to
// info (operators want the request/job stream); fit defaults to warn
// so the command's stdout/stderr contract is unchanged unless asked.
func addLogFlags(fs *flag.FlagSet, defaultLevel string) logFlags {
	return logFlags{
		format: fs.String("log-format", "text", "structured log format: text | json"),
		level:  fs.String("log-level", defaultLevel, "log verbosity: debug | info | warn | error"),
	}
}

// logger builds the slog.Logger the flags describe, writing to stderr.
func (l logFlags) logger(fs *flag.FlagSet) (*slog.Logger, error) {
	lg, err := obs.NewLogger(os.Stderr, *l.format, *l.level)
	if err != nil {
		return nil, usagef(fs, "%v", err)
	}
	return lg, nil
}

// validateBudget enforces the shared ε/δ flag contract uniformly
// across subcommands through dp.Budget.Validate: ε must be positive
// and finite, δ in [0, 1). Violations exit 2 with usage text, like any
// other flag error, instead of surfacing as a runtime failure deep
// inside the run.
func validateBudget(fs *flag.FlagSet, eps, delta float64) error {
	if err := (dp.Budget{Eps: eps, Delta: delta}).Validate(); err != nil {
		return usagef(fs, "%v", err)
	}
	return nil
}

// newRun materializes the pipeline Run for a command: a context that
// dies on SIGINT/SIGTERM and after -timeout, the -workers budget, and
// the -progress sink.
func (p pipeFlags) newRun() (*pipeline.Run, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var sink pipeline.Sink
	if *p.progress {
		sink = progressSink(os.Stderr, time.Now)
	}
	run, cancel := pipeline.WithTimeout(ctx, *p.timeout, *p.workers, sink)
	return run, func() {
		cancel()
		stop()
	}
}

// progressSink renders stage events as stderr lines: start, and done
// with the stage's elapsed time (measured on now), for every stage,
// plus intermediate fractions in >= 25% steps. The per-stage state is
// dropped when a stage completes (and capped as a backstop) so a
// long-lived `serve -progress` process, whose stage keys carry unique
// job-id prefixes, does not grow without bound.
func progressSink(w io.Writer, now func() time.Time) pipeline.Sink {
	const maxOpen = 1024 // stages that never complete (cancelled jobs)
	start := map[string]time.Time{}
	last := map[string]float64{}
	return func(e pipeline.Event) {
		switch {
		case e.Frac <= 0:
			if len(start) >= maxOpen {
				clear(start)
			}
			start[e.Stage] = now()
			fmt.Fprintf(w, "[stage] %s ...\n", e.Stage)
		case e.Frac >= 1:
			delete(last, e.Stage)
			t0, ok := start[e.Stage]
			delete(start, e.Stage)
			if !ok {
				fmt.Fprintf(w, "[stage] %s done\n", e.Stage)
				return
			}
			fmt.Fprintf(w, "[stage] %s done (%.2fs)\n", e.Stage, now().Sub(t0).Seconds())
		case e.Frac-last[e.Stage] >= 0.25:
			if len(last) >= maxOpen {
				clear(last)
			}
			last[e.Stage] = e.Frac
			fmt.Fprintf(w, "[stage] %s %3.0f%%\n", e.Stage, e.Frac*100)
		}
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		err = cmdTable1(args)
	case "figure":
		err = cmdFigure(args)
	case "fit":
		err = cmdFit(args)
	case "generate":
		err = cmdGenerate(args)
	case "stats":
		err = cmdStats(args)
	case "sweep":
		err = cmdSweep(args)
	case "ssgrowth":
		err = cmdSSGrowth(args)
	case "sscompare":
		err = cmdSSCompare(args)
	case "serve":
		err = cmdServe(args)
	case "job":
		err = cmdJob(args)
	case "audit":
		err = cmdAudit(args)
	case "budget":
		err = cmdBudget(args)
	case "dataset":
		err = cmdDataset(args)
	case "cache":
		err = cmdCache(args)
	case "datasets":
		err = cmdDatasets(args)
	case "version":
		fmt.Printf("dpkron %s (%s, %s/%s)\n", version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dpkron: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	switch {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "dpkron %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `dpkron — differentially private Kronecker graph estimation

commands:
  table1     regenerate the paper's Table 1 (three estimators, four graphs)
  figure     regenerate a figure (five statistics panels for one dataset)
  fit        estimate initiator parameters for an edge-list graph
  generate   sample a synthetic SKG (to an edge list, or streamed into a store)
  stats      print the matching features and summary statistics of a graph
  sweep      privacy-utility sweep over epsilon
  ssgrowth   smooth sensitivity of triangles vs graph size
  sscompare  smooth sensitivity: SKG vs density-matched G(n,p)
  serve      run the HTTP/JSON estimation job service
  job        list, show, wait for, trace or cancel jobs on a running server
  audit      chronological privacy-spend report for a dataset (ledger + journal)
  budget     show, set or reset a privacy-budget ledger
  dataset    import, list, inspect, export or remove stored datasets
  cache      list, inspect or remove cached private-fit releases
  datasets   list the built-in evaluation datasets
  version    print the build version

shared flags (all long-running commands):
  -workers N     parallelism bound (results identical for any N)
  -timeout D     abort after duration D (e.g. 90s, 5m)
  -progress      print pipeline stage progress to stderr
`)
}

func cmdTable1(args []string) error {
	fs := newFlagSet("table1")
	eps := fs.Float64("eps", 0.2, "total epsilon")
	delta := fs.Float64("delta", 0.01, "delta")
	seed := fs.Uint64("seed", 7, "random seed")
	iters := fs.Int("kronfit-iters", 60, "KronFit gradient iterations")
	pf := addPipeFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if err := validateBudget(fs, *eps, *delta); err != nil {
		return err
	}
	run, cancel := pf.newRun()
	defer cancel()
	opts := experiments.Table1Options{Eps: *eps, Delta: *delta, Seed: *seed, KronFitIters: *iters}
	rows, err := experiments.RunTable1DatasetsCtx(run, experiments.Registry(), opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderTable1(rows, opts))
	return nil
}

func cmdFigure(args []string) error {
	fs := newFlagSet("figure")
	name := fs.String("dataset", "CA-GrQc-like", "dataset name (see `dpkron datasets`)")
	expected := fs.Int("expected", 0, "realizations for expected curves (paper: 100)")
	csvPath := fs.String("csv", "", "write full series to CSV file")
	plot := fs.Bool("plot", false, "render ASCII log-log plots")
	eps := fs.Float64("eps", 0.2, "total epsilon")
	delta := fs.Float64("delta", 0.01, "delta")
	seed := fs.Uint64("seed", 11, "random seed")
	pf := addPipeFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if err := validateBudget(fs, *eps, *delta); err != nil {
		return err
	}
	d, err := experiments.Lookup(*name)
	if err != nil {
		return err
	}
	run, cancel := pf.newRun()
	defer cancel()
	res, err := experiments.RunFigureCtx(run, d, experiments.FigureOptions{
		Eps: *eps, Delta: *delta, Seed: *seed, ExpectedRuns: *expected,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFigure(res, 10))
	if *plot {
		for _, panel := range experiments.PanelNames {
			fmt.Printf("\n== %s (log-log) ==\n", panel)
			var series []textplot.Series
			add := func(label string, s experiments.Series) {
				series = append(series, textplot.Series{Name: label, X: s.X, Y: s.Y})
			}
			add("Original", res.Original.Panel(panel))
			for _, n := range experiments.EstimatorNames {
				add(n, res.Single[n].Panel(panel))
			}
			logX := panel != "hop plot"
			fmt.Print(textplot.Render(series, textplot.Options{LogX: logX, LogY: true}))
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteCSV(f, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	return nil
}

// cmdFit runs the server's fit body (server.RunFit) in-process, on a
// request normalized and keyed by the server's own rules, so a CLI fit
// and a served one release, debit and memoize identically.
func cmdFit(args []string) error {
	fs := newFlagSet("fit")
	in := fs.String("in", "", "edge-list file, - for stdin, or a stored dataset id with -store (required)")
	method := fs.String("method", "private", "private | mom | mle")
	eps := fs.Float64("eps", 0.2, "total epsilon (private)")
	delta := fs.Float64("delta", 0.01, "delta (private)")
	k := fs.Int("k", 0, "Kronecker power (0 = infer)")
	seed := fs.Uint64("seed", 1, "random seed")
	ledgerPath := fs.String("ledger", "", "privacy-budget ledger file; private fits are debited against it")
	dataset := fs.String("dataset", "", "ledger dataset id (default: content fingerprint of the input graph)")
	storeDir := fs.String("store", "", "dataset store directory; lets -in name a stored dataset id")
	relCacheDir := fs.String("release-cache", "",
		"release cache directory; an identical earlier private fit is re-served from it at zero budget and zero compute, and new fits are memoized")
	lf := addLogFlags(fs, "warn") // warn by default: fit's stdout/stderr contract is unchanged
	pf := addPipeFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	logger, err := lf.logger(fs)
	if err != nil {
		return err
	}
	if *in == "" {
		return usagef(fs, "-in is required")
	}
	if err := validateBudget(fs, *eps, *delta); err != nil {
		return err
	}
	req := server.FitRequest{Method: *method, Eps: *eps, Delta: *delta, K: *k, Seed: *seed, Dataset: *dataset}
	if err := req.Normalize(); err != nil {
		return usagef(fs, "%v", err)
	}
	// Normalize reads a zero as an absent JSON field; a zero flag is
	// the caller's explicit choice.
	req.Seed, req.Delta = *seed, *delta
	run, cancel := pf.newRun()
	defer cancel()
	g, storedID, err := loadGraph(run, *in, *storeDir)
	if err != nil {
		return err
	}
	logger.LogAttrs(context.Background(), slog.LevelInfo, "fit starting",
		slog.String("method", req.Method), slog.Float64("eps", *eps),
		slog.Float64("delta", *delta), slog.Int("k", *k), slog.Uint64("seed", *seed),
		slog.Int("nodes", g.NumNodes()), slog.Int("edges", g.NumEdges()))
	fitStart := time.Now()
	defer func() {
		logger.LogAttrs(context.Background(), slog.LevelInfo, "fit finished",
			slog.Duration("duration", time.Since(fitStart)))
	}()
	// Only a private fit is keyed, debited and memoized. The content id
	// keys the release and names the default ledger account; a stored
	// dataset's id already is its fingerprint, and an input graph is
	// hashed once, only when one of the two needs it.
	private := req.Method == "private"
	id := storedID
	if id == "" && private && (*relCacheDir != "" || (*ledgerPath != "" && req.Dataset == "")) {
		id = accountant.DatasetID(g)
	}
	// The question is keyed before any budget is debited or noise
	// drawn, so a cache hit costs nothing.
	var rc *release.Cache
	var key *release.Key
	if private && *relCacheDir != "" {
		if rc, err = release.Open(*relCacheDir); err != nil {
			return err
		}
		key = server.ReleaseKey(&req, id, g.NumNodes())
		e, _ := rc.Get(*key)
		if fr, ok := server.DecodeRelease(e); ok {
			printFit(fr)
			fmt.Printf("  release: %s stored %s (cached; no budget spent)\n",
				e.Fingerprint, e.Stored.Format("2006-01-02T15:04:05Z"))
			return nil
		}
	}
	// Debit the full requested budget up front (Algorithm 1's schedule
	// is data-independent) and never refund: a failed run may already
	// have drawn noise.
	var led *accountant.Ledger
	ds := req.Dataset
	if private && *ledgerPath != "" {
		if led, err = accountant.Open(*ledgerPath); err != nil {
			return err
		}
		if ds == "" {
			ds = id
		}
		if err := led.Spend(ds, core.PlannedReceipt(req.Eps, req.Delta)); err != nil {
			return err
		}
	}
	fr, err := server.RunFit(run, g, req, ds, nil)
	if err != nil {
		return err
	}
	if rc != nil {
		// Best-effort: a failed write costs future hits, not this run.
		if _, err := rc.Put(*key, fr); err != nil {
			fmt.Fprintf(os.Stderr, "dpkron fit: caching release: %v\n", err)
		}
	}
	printFit(fr)
	if led != nil {
		fmt.Printf("  ledger: dataset %s, remaining %s\n", ds, led.Remaining(ds))
	}
	if private && *pf.progress {
		fmt.Fprintf(os.Stderr, "[budget] spent %s across %d mechanism charges\n",
			*fr.Spent, len(fr.Receipt.Charges))
	}
	return nil
}

// cmdGenerate runs the server's generate body (server.Generate)
// in-process. The HTTP per-request caps do not apply here.
func cmdGenerate(args []string) error {
	fs := newFlagSet("generate")
	a := fs.Float64("a", 0.99, "initiator a")
	b := fs.Float64("b", 0.45, "initiator b")
	c := fs.Float64("c", 0.25, "initiator c")
	k := fs.Int("k", 10, "Kronecker power")
	out := fs.String("out", "", "output edge-list file (default stdout)")
	method := fs.String("method", "auto", "exact | balldrop | auto")
	seed := fs.Uint64("seed", 1, "random seed")
	storeDir := fs.String("store", "", "stream the sample into this dataset store (bounded memory, mmap-ready v2 file) instead of writing an edge list")
	name := fs.String("name", "", "label for the stored dataset (with -store)")
	pf := addPipeFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	m, err := skg.NewModel(skg.Initiator{A: *a, B: *b, C: *c}, *k)
	if err != nil {
		return err
	}
	if *out != "" && *storeDir != "" {
		return usagef(fs, "-out and -store are mutually exclusive (use `dpkron dataset export` to get an edge list from the store)")
	}
	req := server.GenerateRequest{A: *a, B: *b, C: *c, K: *k, Seed: *seed, Method: *method, Name: *name}
	if err := req.Normalize(); err != nil {
		return usagef(fs, "%v", err)
	}
	req.Seed = *seed // a zero flag is an explicit seed, not an absent field
	var st *dataset.Store
	if *storeDir != "" {
		if st, err = dataset.Open(*storeDir); err != nil {
			return err
		}
	}
	run, cancel := pf.newRun()
	defer cancel()
	g, meta, created, err := server.Generate(run, m, req, st)
	if err != nil {
		return err
	}
	if st != nil {
		verb := "stored"
		if !created {
			verb = "already stored as"
		}
		fmt.Printf("%s %s: %d nodes, %d edges (v%d, %d bytes)\n",
			verb, meta.ID, meta.Nodes, meta.Edges, meta.Format, meta.Bytes)
		return nil
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := g.WriteEdgeList(w); err != nil {
		return err
	}
	if *out != "" {
		fmt.Printf("wrote %s: %d nodes, %d edges\n", *out, g.NumNodes(), g.NumEdges())
	}
	return nil
}

func cmdStats(args []string) error {
	fs := newFlagSet("stats")
	in := fs.String("in", "", "edge-list file, - for stdin, or a stored dataset id with -store (required)")
	storeDir := fs.String("store", "", "dataset store directory; lets -in name a stored dataset id")
	pf := addPipeFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef(fs, "-in is required")
	}
	run, cancel := pf.newRun()
	defer cancel()
	g, _, err := loadGraph(run, *in, *storeDir)
	if err != nil {
		return err
	}
	f, err := stats.FeaturesOfCtx(run, g)
	if err != nil {
		return err
	}
	fmt.Printf("nodes: %d\nedges: %.0f\nhairpins (wedges): %.0f\ntripins (3-stars): %.0f\ntriangles: %.0f\n",
		g.NumNodes(), f.E, f.H, f.T, f.Delta)
	fmt.Printf("global clustering: %.4f\nmax degree: %d\n", stats.GlobalClustering(f), g.MaxDegree())
	hop, err := stats.HopPlotCtx(run, g)
	if err != nil {
		return err
	}
	fmt.Printf("effective diameter (90%%): %.2f\n", stats.EffectiveDiameter(hop, 0.9))
	_, sizes := stats.ConnectedComponents(g)
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Printf("components: %d (largest %d)\n", len(sizes), largest)
	return nil
}

func cmdSweep(args []string) error {
	fs := newFlagSet("sweep")
	name := fs.String("dataset", "Synthetic", "dataset name")
	trials := fs.Int("trials", 5, "trials per epsilon")
	delta := fs.Float64("delta", 0.01, "delta")
	seed := fs.Uint64("seed", 3, "random seed")
	pf := addPipeFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	// The sweep's epsilons are fixed; only -delta needs the shared check.
	if err := validateBudget(fs, 1, *delta); err != nil {
		return err
	}
	d, err := experiments.Lookup(*name)
	if err != nil {
		return err
	}
	run, cancel := pf.newRun()
	defer cancel()
	g, err := d.GenerateCtx(run)
	if err != nil {
		return err
	}
	rows, err := experiments.EpsilonSweepCtx(run, g, d.K,
		[]float64{0.05, 0.1, 0.2, 0.5, 1, 2}, *delta, *trials, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s (n=%d, m=%d)\n", d.Name, g.NumNodes(), g.NumEdges())
	fmt.Print(experiments.RenderSweep(rows))
	return nil
}

func cmdSSGrowth(args []string) error {
	fs := newFlagSet("ssgrowth")
	kmin := fs.Int("kmin", 8, "smallest k")
	kmax := fs.Int("kmax", 13, "largest k")
	eps := fs.Float64("eps", 0.2, "total epsilon")
	delta := fs.Float64("delta", 0.01, "delta")
	seed := fs.Uint64("seed", 3, "random seed")
	pf := addPipeFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if err := validateBudget(fs, *eps, *delta); err != nil {
		return err
	}
	var ks []int
	for k := *kmin; k <= *kmax; k++ {
		ks = append(ks, k)
	}
	run, cancel := pf.newRun()
	defer cancel()
	rows, err := experiments.SmoothSensGrowthCtx(run, skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, ks, *eps, *delta, *seed)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderSSGrowth(rows))
	return nil
}

func cmdSSCompare(args []string) error {
	fs := newFlagSet("sscompare")
	kmin := fs.Int("kmin", 8, "smallest k")
	kmax := fs.Int("kmax", 13, "largest k")
	eps := fs.Float64("eps", 0.2, "total epsilon")
	delta := fs.Float64("delta", 0.01, "delta")
	seed := fs.Uint64("seed", 11, "random seed")
	pf := addPipeFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if err := validateBudget(fs, *eps, *delta); err != nil {
		return err
	}
	var ks []int
	for k := *kmin; k <= *kmax; k++ {
		ks = append(ks, k)
	}
	run, cancel := pf.newRun()
	defer cancel()
	rows, err := experiments.SmoothSensCompareCtx(run, skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, ks, *eps, *delta, *seed)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderSSCompare(rows))
	return nil
}

func cmdServe(args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	maxJobs := fs.Int("max-jobs", 2, "concurrently running jobs (worker budget is split across them)")
	maxQueue := fs.Int("max-queue", 32, "bound on admitted unfinished jobs (429 beyond it)")
	maxHistory := fs.Int("max-history", 256, "finished jobs retained for polling before eviction")
	ledgerPath := fs.String("ledger", "", "privacy-budget ledger file; enables per-dataset enforcement of private fits")
	storeDir := fs.String("store", "", "dataset store directory; enables /v1/datasets and private fits by dataset id")
	releaseCache := fs.String("release-cache", "",
		"release cache directory; identical private fits coalesce and repeats are re-served at zero budget")
	journalPath := fs.String("journal", "",
		"job journal file; makes jobs durable across crashes (resume without a second debit) and restarts")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"on SIGINT/SIGTERM, how long running jobs may finish before being cancelled")
	metricsAddr := fs.String("metrics-addr", "",
		"serve /metrics and /debug/pprof/ on this separate operator listener, never on -addr")
	lf := addLogFlags(fs, "info")
	pf := addPipeFlags(fs) // -workers, -timeout (server lifetime), -progress (job event log)
	if err := parse(fs, args); err != nil {
		return err
	}
	logger, err := lf.logger(fs)
	if err != nil {
		return err
	}
	opts := server.Options{
		Workers: *pf.workers, MaxJobs: *maxJobs, MaxQueue: *maxQueue, MaxHistory: *maxHistory,
		Logger: logger,
	}
	if *metricsAddr != "" {
		opts.Metrics = obs.NewRegistry()
		// Build identity as a constant-1 gauge: `dpkron_build_info{version,
		// go_version} 1` is the standard join key for "which build is this
		// fleet running" dashboards.
		opts.Metrics.GaugeVec("dpkron_build_info", "Build metadata of the running dpkron binary; constant 1.",
			"version", "go_version").With(version, runtime.Version()).Set(1)
	}
	if *ledgerPath != "" {
		led, err := accountant.Open(*ledgerPath)
		if err != nil {
			return err
		}
		opts.Ledger = led
		fmt.Fprintf(os.Stderr, "dpkron serve: enforcing privacy budgets from %s\n", led.Path())
	}
	if *storeDir != "" {
		st, err := dataset.Open(*storeDir)
		if err != nil {
			return err
		}
		opts.Datasets = st
		fmt.Fprintf(os.Stderr, "dpkron serve: serving datasets from %s\n", st.Dir())
	}
	if *releaseCache != "" {
		rc, err := release.Open(*releaseCache)
		if err != nil {
			return err
		}
		opts.Releases = rc
		fmt.Fprintf(os.Stderr, "dpkron serve: caching private-fit releases in %s\n", rc.Dir())
	}
	if *journalPath != "" {
		jnl, err := journal.Open(*journalPath)
		if err != nil {
			return err
		}
		defer jnl.Close()
		opts.Journal = jnl
		fmt.Fprintf(os.Stderr, "dpkron serve: journaling jobs to %s\n", jnl.Path())
	}
	if *pf.progress {
		// Event streams are serialized per job but concurrent across
		// jobs; one mutex keeps the shared stderr renderer safe.
		var mu sync.Mutex
		sink := progressSink(os.Stderr, time.Now)
		opts.EventLog = func(jobID string, e pipeline.Event) {
			mu.Lock()
			defer mu.Unlock()
			sink(pipeline.Event{Stage: jobID + "/" + e.Stage, Frac: e.Frac})
		}
	}
	srv := server.New(opts)
	defer srv.Close()
	// Listen before serving so -addr :0 (ephemeral port) reports the
	// real address — which also makes the command end-to-end testable.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}

	if *metricsAddr != "" {
		// The operator listener is the only place the exposition and the
		// profiles are served: the gauges reveal dataset sizes and every
		// account's spend, so they stay off the request listener, and
		// setting -metrics-addr is the operator's opt-in to both.
		mmux := http.NewServeMux()
		mmux.Handle("GET /metrics", opts.Metrics.Handler())
		mmux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mmux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mmux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mmux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mmux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		metricsSrv := &http.Server{Handler: mmux, ReadHeaderTimeout: 10 * time.Second}
		defer metricsSrv.Close()
		fmt.Fprintf(os.Stderr, "dpkron serve: metrics on http://%s/metrics\n", mln.Addr())
		go func() { _ = metricsSrv.Serve(mln) }()
	}

	// -timeout bounds the server's lifetime (useful for smoke tests and
	// batch drivers); SIGINT/SIGTERM always shut down gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pf.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *pf.timeout)
		defer cancel()
	}
	errCh := make(chan error, 1)
	fmt.Fprintf(os.Stderr, "dpkron serve: listening on http://%s (max-jobs=%d, workers=%d)\n",
		ln.Addr(), *maxJobs, *pf.workers)
	go func() {
		errCh <- httpSrv.Serve(ln)
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		// Graceful drain: refuse new work (503 + Retry-After) while
		// serving reads and letting running jobs finish; past the
		// deadline, cancel stragglers so their terminal states land in
		// the journal before the process exits. A drained exit is a
		// success (status 0) — the journal holds no silent debits.
		fmt.Fprintf(os.Stderr, "dpkron serve: draining (up to %s)\n", *drainTimeout)
		srv.StartDrain()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		srv.Drain(drainCtx)
		cancel()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "dpkron serve: drained, shutting down")
		return nil
	}
}

// cmdBudget manages privacy-budget ledgers: `dpkron budget show` lists
// accounts (budget, spent, remaining, receipts), `set` configures a
// dataset's allowance, and `reset` zeroes its spend. The same ledger
// file drives `fit -ledger` and `serve -ledger` enforcement.
func cmdBudget(args []string) error {
	fs := newFlagSet("budget")
	ledgerPath := fs.String("ledger", "", "ledger file (required)")
	dataset := fs.String("dataset", "", "dataset id (required for set/reset; filters show)")
	eps := fs.Float64("eps", 0, "total epsilon allowance (set)")
	delta := fs.Float64("delta", 0, "total delta allowance (set)")
	action := "show"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		action, args = args[0], args[1:]
	}
	if err := parse(fs, args); err != nil {
		return err
	}
	switch action {
	case "show", "set", "reset":
	default:
		return usagef(fs, "unknown action %q (want show, set or reset)", action)
	}
	if *ledgerPath == "" {
		return usagef(fs, "-ledger is required")
	}
	if action != "show" && *dataset == "" {
		return usagef(fs, "-dataset is required for %s", action)
	}
	if action == "set" {
		if err := validateBudget(fs, *eps, *delta); err != nil {
			return err
		}
	}
	led, err := accountant.Open(*ledgerPath)
	if err != nil {
		return err
	}
	switch action {
	case "set":
		if err := led.SetBudget(*dataset, dp.Budget{Eps: *eps, Delta: *delta}); err != nil {
			return err
		}
		fmt.Printf("dataset %s: budget set to %s\n", *dataset, dp.Budget{Eps: *eps, Delta: *delta})
	case "reset":
		if err := led.Reset(*dataset); err != nil {
			return err
		}
		fmt.Printf("dataset %s: spend reset\n", *dataset)
	case "show":
		ids := led.Datasets()
		if *dataset != "" {
			ids = []string{*dataset}
		}
		if len(ids) == 0 {
			fmt.Printf("ledger %s: no datasets (configure one with `dpkron budget set`)\n", led.Path())
			return nil
		}
		for _, id := range ids {
			acct, ok := led.Account(id)
			if !ok {
				return fmt.Errorf("unknown dataset %q", id)
			}
			fmt.Printf("dataset %s  budget %s  spent %s  remaining %s  receipts %d\n",
				id, acct.Budget, acct.Spent, acct.Remaining(), len(acct.Receipts))
		}
	}
	return nil
}

func cmdDatasets(args []string) error {
	for _, d := range experiments.Registry() {
		fmt.Printf("%-14s k=%d seed=%d generator=%s (stands in for N=%d E=%d)\n",
			d.Name, d.K, d.Seed, d.Source, d.PaperN, d.PaperE)
	}
	return nil
}
