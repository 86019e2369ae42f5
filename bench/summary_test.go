package bench

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Median(xs); got != 3 {
		t.Errorf("Median(odd) = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median(even) = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v, want 0", got)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {90.5, 91}, {100, 100}, {0.1, 1}} {
		if got := Percentile(hundred, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestTailPercentile pins the rule that a reported percentile is the
// highest one, at most the one asked for, with at least MinBeyond
// samples above it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		q    float64
		ok   bool
	}{
		{10, 90, 0, false},
		{19, 90, 0, false}, // 9 samples above even the median
		{20, 90, 50, true},
		{50, 90, 80, true},
		{100, 90, 90, true},
		{100, 95, 90, true},
		{200, 95, 95, true},
		{1000, 95, 95, true},
	} {
		q, ok := TailPercentile(c.n, c.want)
		if q != c.q || ok != c.ok {
			t.Errorf("TailPercentile(%d, %v) = %v, %v; want %v, %v", c.n, c.want, q, ok, c.q, c.ok)
		}
	}
	for n := 1; n <= 400; n++ {
		q, ok := TailPercentile(n, 99)
		if !ok {
			continue
		}
		rank := int(math.Ceil(q / 100 * float64(n)))
		if n-rank < MinBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples above it", n, q, n-rank)
		}
		if higher := q + 1; higher <= 99 && n-int(math.Ceil(higher/100*float64(n))) >= MinBeyond {
			t.Fatalf("n=%d: p%v is supported too, so p%v is not the highest", n, higher, q)
		}
	}
}

// TestQuartilesMatchPython checks the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 8}, [3]float64{0.5, 5, 9.5}},
	} {
		q1, med, q3 := Quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	var xs []float64
	for i := 1; i <= 30; i++ {
		xs = append(xs, float64(i))
	}
	d := Summarize(xs, 95)
	if d.N != 30 || d.P50 != 15.5 || d.TailQ != 66 || d.Tail != 20 {
		t.Errorf("Summarize(1..30, 95) = %+v", d)
	}
	if d := Summarize(xs[:12], 95); d.TailQ != 0 || d.String() != "p50 6.5 (n=12)" {
		t.Errorf("Summarize of 12 samples = %+v (%s), want no tail", d, d)
	}
}
