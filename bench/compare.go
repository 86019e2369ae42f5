package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Record is one run as the command appends it to its -out file, one
// JSON object per line.
type Record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result
	// Details are the run's human-readable breakdowns (per-kind latency
	// distributions with sample counts, output fingerprints).
	Details []string `json:"details,omitempty"`
}

// ReadRecords parses a file of Records.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("record on line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// Verdict is the outcome of comparing one metric on one workload.
type Verdict string

const (
	Improved    Verdict = "improved"
	Regressed   Verdict = "regressed"
	WithinNoise Verdict = "within-noise"
	Unresolved  Verdict = "unresolved"
)

// MinPairs is the number of base/new run pairs a verdict needs.
const MinPairs = 10

// Comparison is the verdict for one end-to-end metric on one workload.
type Comparison struct {
	Workload, Metric string
	Pairs            int
	// Quartiles of each side over the paired runs.
	Base, New [3]float64
	// Wins counts the pairs in which the new run reads better.
	Wins    int
	Verdict Verdict
	Why     string
}

// Unpaired is an end-to-end run with no run of the same workload and
// seed on the other side; it takes no part in the verdicts.
type Unpaired struct {
	Side     string // "base" or "new"
	Workload string
	Seed     uint64
}

// Compare pairs each end-to-end run in base with the run of the same
// workload and seed in next (the operator alternates which side runs
// first; a seed run twice on one side pairs in file order) and judges
// every end-to-end metric over the pairs in which both runs report it:
//
//   - unresolved with fewer than MinPairs pairs, or when the base's
//     quartile spread is wider than the metric's bound, unless every new
//     run reads better than every base run;
//   - improved when the new run wins at least nine tenths of the pairs
//     (ties count for neither) and the medians differ by more than the
//     base's quartile spread;
//   - regressed when the new median is worse than the base median by
//     more than the bound;
//   - within-noise otherwise.
func Compare(base, next []Record) ([]Comparison, []Unpaired) {
	b, bOrder := keyRuns(base)
	n, nOrder := keyRuns(next)
	pairs := map[string][][2]Record{}
	var unpaired []Unpaired
	for _, k := range bOrder {
		if nr, ok := n[k]; ok {
			pairs[k.workload] = append(pairs[k.workload], [2]Record{b[k], nr})
		} else {
			unpaired = append(unpaired, Unpaired{"base", k.workload, k.seed})
		}
	}
	for _, k := range nOrder {
		if _, ok := b[k]; !ok {
			unpaired = append(unpaired, Unpaired{"new", k.workload, k.seed})
		}
	}
	var names []string
	for w := range pairs {
		names = append(names, w)
	}
	sort.Strings(names)
	var out []Comparison
	for _, w := range names {
		for _, m := range EndToEnd {
			var bv, nv []float64
			for _, p := range pairs[w] {
				x, okx := p[0].Metrics[m.Name]
				y, oky := p[1].Metrics[m.Name]
				if okx && oky {
					bv, nv = append(bv, x.Value), append(nv, y.Value)
				}
			}
			out = append(out, compareMetric(w, m, bv, nv))
		}
	}
	return out, unpaired
}

// compareMetric judges one metric from paired values: base[i] and
// next[i] come from runs of one seed.
func compareMetric(workload string, m Metric, base, next []float64) Comparison {
	pairs := len(base)
	c := Comparison{Workload: workload, Metric: m.Name, Pairs: pairs}
	c.Base[0], c.Base[1], c.Base[2] = Quartiles(base)
	c.New[0], c.New[1], c.New[2] = Quartiles(next)
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range base {
		if better(next[i], base[i]) {
			c.Wins++
		}
	}
	if pairs < MinPairs {
		c.Verdict, c.Why = Unresolved, fmt.Sprintf("%d pairs, need %d", pairs, MinPairs)
		return c
	}
	spread := c.Base[2] - c.Base[0]
	gap := math.Abs(c.New[1] - c.Base[1])
	allBetter := true
	for _, x := range next {
		for _, y := range base {
			allBetter = allBetter && better(x, y)
		}
	}
	if spread > m.Bound*math.Abs(c.Base[1]) && !allBetter {
		c.Verdict = Unresolved
		c.Why = fmt.Sprintf("base spread %.1f%% is wider than the %.0f%% bound", 100*spread/math.Abs(c.Base[1]), 100*m.Bound)
		return c
	}
	if 10*c.Wins >= 9*pairs && gap > spread && better(c.New[1], c.Base[1]) {
		c.Verdict = Improved
		c.Why = fmt.Sprintf("won %d/%d pairs; median gap %.4g > spread %.4g", c.Wins, pairs, gap, spread)
		return c
	}
	worse := (c.New[1] - c.Base[1]) / math.Abs(c.Base[1])
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		c.Verdict = Regressed
		c.Why = fmt.Sprintf("median %.1f%% worse, bound %.0f%%", 100*worse, 100*m.Bound)
		return c
	}
	c.Verdict = WithinNoise
	c.Why = fmt.Sprintf("median %+.1f%%, won %d/%d pairs", -100*worse, c.Wins, pairs)
	return c
}

// runKey identifies an end-to-end run within one file.
type runKey struct {
	workload string
	seed     uint64
	repeat   int // earlier runs of the same workload and seed in the file
}

// keyRuns keys the end-to-end runs and returns the keys in file order.
func keyRuns(recs []Record) (map[runKey]Record, []runKey) {
	out := map[runKey]Record{}
	var order []runKey
	seen := map[runKey]int{}
	for _, r := range recs {
		if r.Trace {
			continue
		}
		first := runKey{workload: r.Workload, seed: r.Seed}
		k := first
		k.repeat = seen[first]
		seen[first]++
		out[k] = r
		order = append(order, k)
	}
	return out, order
}
