package bench

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is the number of samples a reported tail percentile must
// leave above it.
const MinBeyond = 10

// Median returns the median of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank p-th percentile of xs, 0 < p <= 100:
// the sample at rank ceil(p/100·n), so that at least p% of the samples
// are at or below it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

// TailPercentile returns the highest whole percentile, at most want,
// that leaves at least MinBeyond of n samples above it under
// Percentile's nearest rank, and false when even the median does not.
func TailPercentile(n int, want float64) (float64, bool) {
	if n <= MinBeyond {
		return 0, false
	}
	q := math.Min(want, math.Floor(100*float64(n-MinBeyond)/float64(n)))
	if q < 50 {
		return 0, false
	}
	return q, true
}

// Quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4), the
// method the benchmark's acceptance check uses; a single sample is all
// three.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// Dist summarizes latency samples by their median and the highest tail
// percentile the sample count supports.
type Dist struct {
	N     int
	P50   float64
	TailQ float64 // the tail percentile reported; 0 when unsupported
	Tail  float64
}

// Summarize returns the Dist of xs with a tail percentile of at most
// want.
func Summarize(xs []float64, want float64) Dist {
	d := Dist{N: len(xs), P50: Median(xs)}
	if q, ok := TailPercentile(len(xs), want); ok {
		d.TailQ, d.Tail = q, Percentile(xs, q)
	}
	return d
}

func (d Dist) String() string {
	if d.N == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50 %.4g", d.P50)
	if d.TailQ > 50 {
		s += fmt.Sprintf(", p%g %.4g", d.TailQ, d.Tail)
	}
	return s + fmt.Sprintf(" (n=%d)", d.N)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
