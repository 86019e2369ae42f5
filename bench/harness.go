package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Sizes fixes the dimensions of every workload's inputs and the fewest
// operations a run of the slow workloads measures.
type Sizes struct {
	DenseK, DenseEdges int // fit-dense graph
	DenseFits          int // fit-dense cold fits per run, at least
	MixedK             int // fit-mixed and fit-hits graph, ball-drop at its expected edge count
	MixedRequests      int // fit-mixed requests per run, at least
	Questions          int // fit-mixed questions released before measuring
	HitQuestions       int // fit-hits questions, the first of fit-mixed's for a seed
	PriorReceipts      int // fit-mixed receipts in the ledger each set-up starts from
	History            int // fit servers' MaxHistory; fit-hits warms up on as many requests
	StatsK             int // stats-hopplot graph, ball-drop at its expected edge count
	StatsReps          int // stats-hopplot reps per run, at least
	GenK, GenEdges     int // generate-store graphs
	GenReps            int // generate-store reps per run, at least
	WarmK, WarmEdges   int // generate-store warm-up graph made in set-up
	Setups             int // set-ups per run; setup_s is their median
}

// DefaultSizes are the benchmark's inputs. On a 2-core machine a dense
// fit takes 1.7–2.4 s, a hop plot at K=14 2.1–2.8 s and a streamed
// generate-to-store 2.7–3.3 s, so an 8-second run measures 10, 3 to 4
// and 3 of them. History is `dpkron serve`'s default. fit-hits releases
// fewer questions than fit-mixed: its hits come from the release cache's
// in-memory LRU, which holds 128 entries, whatever their number.
func DefaultSizes() Sizes {
	return Sizes{
		DenseK: 15, DenseEdges: 1 << 19, DenseFits: 10,
		MixedK: 17, MixedRequests: 64, Questions: 32, HitQuestions: 8, PriorReceipts: 500, History: 256,
		StatsK: 14, StatsReps: 3,
		GenK: 20, GenEdges: 1 << 21, GenReps: 3,
		WarmK: 16, WarmEdges: 1 << 17,
		Setups: 3,
	}
}

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds is the length of the measured phase: no operation starts
	// after it once the workload's fewest operations (at least one) have
	// started.
	Seconds time.Duration
	// Trace selects the per-layer run.
	Trace bool
	Sizes Sizes
	// Dir is where the run's state directories are made ("" selects
	// os.TempDir()).
	Dir string
	// Log receives progress and breakdown lines; nil discards them.
	Log io.Writer
}

type workload struct {
	name, why string
	run       func(r *runner) error
}

// workloads is the benchmark's workload table; each entry's why is the
// reason it is in the benchmark.
var workloads = []workload{
	{"fit-dense", "compute-bound served private fits on a dense K=15 graph, both job slots busy; the triangle release dominates", runFitDense},
	{"fit-mixed", "short served fits and release-cache hits on a sparse K=17 graph; serving layers are a large share", runFitMixed},
	{"fit-hits", "only repeats of released questions on the fit-mixed graph: the release cache answers every request", runFitHits},
	{"stats-hopplot", "features then the exact all-source BFS hop plot on a sparse K=14 graph; no serving layer", runStatsHopPlot},
	{"generate-store", "K=20 ball-drop sample streamed through the external sort into the store, as generate -store does", runGenerateStore},
}

// Workloads returns the names of the workloads in table order.
func Workloads() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// Run executes one benchmark run. An error means the run could not be
// made at all; failed operations and wrong outputs are counted in the
// Result instead.
func Run(cfg Config) (*Result, []string, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.Workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, Workloads())
	}
	if cfg.Sizes.Setups < 1 {
		return nil, nil, fmt.Errorf("Sizes.Setups must be at least 1")
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	r := &runner{cfg: cfg, metrics: map[string]float64{}}
	if err := w.run(r); err != nil {
		return nil, nil, err
	}
	res := &Result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]Value{}}
	want := EndToEnd
	if cfg.Trace {
		want = PerLayer
	}
	for _, m := range want {
		res.Metrics[m.Name] = Value{Value: r.metrics[m.Name], Unit: m.Unit}
	}
	for _, msg := range r.mismatches {
		r.detail("mismatch: %s", msg)
	}
	if more := r.wrong - len(r.mismatches); more > 0 {
		r.detail("and %d more mismatches", more)
	}
	return res, r.details, nil
}

// runner accumulates one run's counts, metrics and breakdowns.
type runner struct {
	cfg Config

	mu         sync.Mutex
	attempted  int
	failed     int
	wrong      int
	mismatches []string // the first few wrong outputs
	metrics    map[string]float64
	details    []string
}

// op counts one attempted operation, failed when err is non-nil.
func (r *runner) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			r.details = append(r.details, "failed: "+err.Error())
		}
	}
}

// mismatch records a wrong output: the operation counts as failed and
// the run as incorrect.
func (r *runner) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.wrong++
	if len(r.mismatches) < 5 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *runner) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// detail records a breakdown line and echoes it to the log.
func (r *runner) detail(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.details = append(r.details, line)
	r.mu.Unlock()
	fmt.Fprintln(r.cfg.Log, line)
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.Log, format+"\n", args...)
}

// setups builds the workload's state Sizes.Setups times, each from a
// fresh directory, records setup_s as the median build time, and returns
// the last keep states; the others are torn down at once. Each state's
// teardown removes its directory.
func setups[T any](r *runner, keep int, build func(dir string) (T, func(), error)) ([]T, []func(), error) {
	n := r.cfg.Sizes.Setups
	if keep > n {
		n = keep
	}
	var times []float64
	var states []T
	var downs []func()
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		dir, err := os.MkdirTemp(r.cfg.Dir, "dpbench-")
		if err != nil {
			return nil, nil, err
		}
		st, down, err := build(dir)
		if err != nil {
			os.RemoveAll(dir)
			for _, d := range downs {
				d()
			}
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		teardown := func() {
			down()
			os.RemoveAll(dir)
		}
		if i < n-keep {
			teardown()
			continue
		}
		states = append(states, st)
		downs = append(downs, teardown)
	}
	r.set("setup_s", Median(times))
	r.logf("set-up: %d times, median %.4g s", len(times), Median(times))
	return states, downs, nil
}

// closedLoop runs op on the given number of client goroutines: a client
// starts its next operation only after its previous one completed, and
// only while the measured phase d lasts or fewer than minOps operations
// have started. It returns the time from the start to the last
// completion.
func closedLoop(clients, minOps int, d time.Duration, op func(client int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var last time.Duration
	started := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				more := started < minOps || time.Now().Before(deadline)
				if more {
					started++
				}
				mu.Unlock()
				if !more {
					return
				}
				op(c)
				mu.Lock()
				last = max(last, time.Since(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return last
}

// heapWatch records, in a goroutine, the live heap each garbage
// collection finds, with the time it was read, so that an operation can
// ask for the largest live heap while it ran. Unlike the heap's
// occupancy, which also holds the garbage awaiting the next collection,
// the live heap does not depend on when collections happen to run. A
// workload reports the median over its operations, not the largest
// reading of the run: a server allocating quickly goes through hundreds
// of collections a second, and the largest of so many readings is an
// outlier that moves from run to run.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	at     []time.Time // when each reading was taken, ascending
	values []uint64    // live heap bytes
}

// watchHeap collects garbage until the live heap stops shrinking, then
// starts reading it. State torn down in set-up can take two collections
// to free: what a finalizer or a sync.Pool still holds outlives the
// first.
func watchHeap() *heapWatch {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for i, last := 0, uint64(math.MaxUint64); i < 4; i++ {
		runtime.GC()
		metrics.Read(s)
		if s[0].Value.Uint64() >= last {
			break
		}
		last = s[0].Value.Uint64()
		time.Sleep(time.Millisecond) // let queued finalizers run
	}
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	h.record(s[0].Value.Uint64())
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			metrics.Read(s)
			h.record(s[0].Value.Uint64())
		}
	}()
	return h
}

// record keeps a reading when it differs from the last one.
func (h *heapWatch) record(v uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.values); n == 0 || h.values[n-1] != v {
		h.at = append(h.at, time.Now())
		h.values = append(h.values, v)
	}
}

// peakSinceMiB returns the largest live heap, in MiB, from the reading
// in effect at start to the latest one.
func (h *heapWatch) peakSinceMiB(start time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.at), func(i int) bool { return h.at[i].After(start) })
	peak := h.values[max(i-1, 0)]
	for _, v := range h.values[i:] {
		peak = max(peak, v)
	}
	return float64(peak) / (1 << 20)
}

func (h *heapWatch) close() {
	close(h.stop)
	<-h.done
}

// allocatedMiB returns the bytes allocated on the heap so far, in MiB.
func allocatedMiB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// samples collects measurements in fixed-size chunks, so that adding one
// never copies the earlier ones: a slice's doublings would show in the
// live heap a run reports, which on fit-hits is about 2 MiB.
type samples struct {
	chunks [][]float64
	n      int
}

func (s *samples) add(x float64) {
	if s.n%4096 == 0 {
		s.chunks = append(s.chunks, make([]float64, 0, 4096))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, x)
	s.n++
}

// all returns the samples in the order they were added.
func (s *samples) all() []float64 {
	out := make([]float64, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// layerTimes collects per-call durations by layer metric name.
type layerTimes map[string][]float64

func (l layerTimes) add(name string, d time.Duration) {
	l[name] = append(l[name], ms(d))
}

// report sets each layer's median and logs its distribution.
func (l layerTimes) report(r *runner) {
	names := make([]string, 0, len(l))
	for name := range l {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.set(name, Median(l[name]))
		r.detail("%-32s %s ms", name, Summarize(l[name], 90))
	}
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
