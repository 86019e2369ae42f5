// Command dpbench runs one workload of the dpkron benchmark, or compares
// two files of runs.
//
//	dpbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//	dpbench compare BASE NEW
//
// A run prints every metric by name and unit, breakdowns to standard
// error, and as its last line one JSON object with the keys correct,
// attempted, failed and metrics. It exits 1 when an operation failed or
// an output was wrong. With --out it also appends the run, with its
// workload and seed, to FILE; compare judges every end-to-end metric of
// two such files, pairing runs of the same workload and seed, and exits 1
// when one regressed. bench/run.sh builds and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dpkron/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dpbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(bench.Workloads(), ", "))
	seed := fs.Uint64("seed", 1, "seed every input of the run is made from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the per-layer replay and prints the per-layer metrics")
	out := fs.String("out", "", "append the run's record to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "dpbench: --trace takes 0 or 1, --seconds a positive number, and there are no arguments")
		return 2
	}
	cfg := bench.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  time.Duration(*seconds * float64(time.Second)),
		Trace:    *traced == 1,
		Sizes:    bench.DefaultSizes(),
		Log:      os.Stderr,
	}
	res, details, err := bench.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
		return 1
	}
	metrics := bench.EndToEnd
	if cfg.Trace {
		metrics = bench.PerLayer
	}
	for _, m := range metrics {
		fmt.Printf("%-32s %16.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	if *out != "" {
		if err := appendRecord(*out, bench.Record{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Result: *res, Details: details}); err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func appendRecord(path string, rec bench.Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: dpbench compare BASE NEW")
		return 2
	}
	var sides [2][]bench.Record
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
			return 1
		}
		sides[i], err = bench.ReadRecords(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: %s: %v\n", path, err)
			return 1
		}
		for _, r := range sides[i] {
			if !r.Correct || r.Failed > 0 {
				fmt.Printf("warning: %s has a %s run (seed %d) with %d failed operations, correct=%v\n",
					path, r.Workload, r.Seed, r.Failed, r.Correct)
			}
		}
	}
	comparisons, unpaired := bench.Compare(sides[0], sides[1])
	for _, u := range unpaired {
		fmt.Printf("warning: the %s side's %s run with seed %d has no partner and is left out\n", u.Side, u.Workload, u.Seed)
	}
	regressed := false
	fmt.Printf("%-18s %-14s %5s  %-32s %-32s %s\n", "workload", "metric", "pairs", "base q1/median/q3", "new q1/median/q3", "verdict")
	for _, c := range comparisons {
		fmt.Printf("%-18s %-14s %5d  %-32s %-32s %s (%s)\n", c.Workload, c.Metric, c.Pairs,
			fmt.Sprintf("%.4g/%.4g/%.4g", c.Base[0], c.Base[1], c.Base[2]),
			fmt.Sprintf("%.4g/%.4g/%.4g", c.New[0], c.New[1], c.New[2]), c.Verdict, c.Why)
		regressed = regressed || c.Verdict == bench.Regressed
	}
	if regressed {
		return 1
	}
	return 0
}
