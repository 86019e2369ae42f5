package bench

import (
	"strings"
	"testing"
)

// scaled returns base·(1 + j) for each jitter j.
func scaled(base float64, jitter []float64) []float64 {
	out := make([]float64, len(jitter))
	for i, j := range jitter {
		out[i] = base * (1 + j)
	}
	return out
}

var (
	tight = []float64{0.01, -0.01, 0.005, -0.005, 0, 0.008, -0.008, 0.002, -0.002, 0.004}
	wide  = []float64{0.3, -0.3, 0.2, -0.2, 0.1, -0.1, 0.25, -0.25, 0.15, -0.15}
	// skewed has a narrow quartile spread but two outliers.
	skewed = []float64{0.05, -0.003, 0.003, -0.002, 0.002, 0, -0.001, 0.001, -0.05, 0.004}
)

func TestCompareVerdicts(t *testing.T) {
	latency := Metric{Name: "latency", Unit: "ms", Better: "lower", Bound: 0.1}
	throughput := Metric{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name       string
		m          Metric
		base, next []float64
		want       Verdict
		why        string
	}{
		{"faster", latency, scaled(100, tight), scaled(80, tight), Improved, "won 10/10"},
		{"slower", latency, scaled(100, tight), scaled(125, tight), Regressed, "25.0% worse"},
		{"too-few-pairs", latency, scaled(100, tight[3:]), scaled(80, tight[3:]), Unresolved, "7 pairs"},
		{"same", latency, scaled(100, tight), scaled(101, tight), WithinNoise, "won 0/10"},
		{"slower-within-bound", latency, scaled(100, tight), scaled(105, tight), WithinNoise, "-5.0%"},
		{"noisy-base", latency, scaled(100, wide), scaled(100, tight), Unresolved, "wider than the 10% bound"},
		{"noisy-but-all-better", latency, scaled(100, wide), scaled(40, tight), Improved, "won 10/10"},
		{"throughput-up", throughput, scaled(10, tight), scaled(13, tight), Improved, "won 10/10"},
		{"throughput-down", throughput, scaled(10, tight), scaled(8, tight), Regressed, "20.0% worse"},
	} {
		got := compareMetric("w", c.m, c.base, c.next)
		if got.Verdict != c.want || !strings.Contains(got.Why, c.why) {
			t.Errorf("%s: %s (%s), want %s (%q)", c.name, got.Verdict, got.Why, c.want, c.why)
		}
	}
}

// runs makes end-to-end records of one workload with seeds 1, 2, ...
// whose p50_ms values are base·(1 + jitter), with the other metrics held
// fixed.
func runs(workload string, base float64, jitter []float64) []Record {
	var out []Record
	for i, v := range scaled(base, jitter) {
		m := map[string]Value{}
		for _, e := range EndToEnd {
			m[e.Name] = Value{Value: 1, Unit: e.Unit}
		}
		m["p50_ms"] = Value{Value: v, Unit: "ms"}
		out = append(out, Record{Workload: workload, Seed: uint64(i + 1), Result: Result{Correct: true, Attempted: 1, Metrics: m}})
	}
	return out
}

func reversed(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[len(recs)-1-i] = r
	}
	return out
}

func p50Verdicts(cs []Comparison) map[string]Comparison {
	out := map[string]Comparison{}
	for _, c := range cs {
		if c.Metric == "p50_ms" {
			out[c.Workload] = c
		}
	}
	return out
}

// TestComparePairsBySeed: runs pair within a workload by seed, whatever
// their order in the files; traced runs take no part; runs without a
// partner are reported and left out; a pair counts for a metric only when
// both runs report it.
func TestComparePairsBySeed(t *testing.T) {
	// Every new "a" run is 2% faster than the base run of its seed, but
	// the files list them in opposite orders; paired in file order, the
	// new runs would win only 8 of 10 pairs.
	base := append(runs("a", 100, skewed), runs("b", 100, tight)...)
	base = append(base, runs("c", 100, tight)...)
	base = append(base, Record{Workload: "a", Seed: 11, Result: Result{Metrics: map[string]Value{}}})
	next := append(runs("b", 200, tight), reversed(runs("a", 98, skewed))...)
	c := runs("c", 100, tight)
	delete(c[2].Metrics, "p50_ms")
	next = append(next, c...)
	next = append(next, Record{Workload: "d", Seed: 1, Result: Result{Metrics: map[string]Value{}}})
	traced := runs("a", 1, tight)
	for i := range traced {
		traced[i].Trace = true
	}
	next = append(next, traced...)

	cs, unpaired := Compare(base, next)
	got := p50Verdicts(cs)
	if len(got) != 3 || got["a"].Verdict != Improved || got["a"].Wins != 10 || got["b"].Verdict != Regressed {
		t.Errorf("verdicts %+v, want a improved 10/10 and b regressed", got)
	}
	if got["c"].Pairs != 9 || got["c"].Verdict != Unresolved {
		t.Errorf("c: %+v, want 9 pairs, unresolved", got["c"])
	}
	want := []Unpaired{{"base", "a", 11}, {"new", "d", 1}}
	if len(unpaired) != len(want) || unpaired[0] != want[0] || unpaired[1] != want[1] {
		t.Errorf("unpaired %+v, want %+v", unpaired, want)
	}
}

func TestReadRecords(t *testing.T) {
	in := `{"workload":"w","seed":3,"trace":false,"correct":true,"attempted":4,"failed":0,"metrics":{"p50_ms":{"value":1.5,"unit":"ms"}}}

{"workload":"w","seed":4,"trace":true,"correct":false,"attempted":2,"failed":1,"metrics":{}}
`
	recs, err := ReadRecords(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seed != 3 || recs[0].Metrics["p50_ms"].Value != 1.5 || !recs[1].Trace || recs[1].Failed != 1 {
		t.Errorf("ReadRecords = %+v", recs)
	}
	if _, err := ReadRecords(strings.NewReader("{not json}\n")); err == nil {
		t.Error("ReadRecords accepted a malformed line")
	}
}
