package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/dataset"
	"dpkron/internal/extsort"
	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// genRoute samples a ball-drop graph with a fixed edge count into a
// dataset store, timing its sampling and storing layers into lt.
type genRoute func(run *pipeline.Run, m skg.Model, seed uint64, edges int, st *dataset.Store, lt layerTimes) (dataset.Meta, error)

// generateInMem builds the whole sample as a graph, then stores it as
// DPKG v2.
func generateInMem(run *pipeline.Run, m skg.Model, seed uint64, edges int, st *dataset.Store, lt layerTimes) (dataset.Meta, error) {
	var g *graph.Graph
	var err error
	lt.add("skg.sample_ms", timed(func() { g, err = m.SampleBallDropNCtx(run, randx.New(seed), edges) }))
	if err != nil {
		return dataset.Meta{}, err
	}
	var meta dataset.Meta
	lt.add("dataset.put_ms", timed(func() { meta, _, err = st.PutFormat(g, "generated", "generated", 2) }))
	return meta, err
}

// generateStreamed spills the sample through an external sort and
// writes the store's v2 file in one bounded-memory pass, as
// `dpkron generate -store` and a server generate job with a store do.
func generateStreamed(run *pipeline.Run, m skg.Model, seed uint64, edges int, st *dataset.Store, lt layerTimes) (dataset.Meta, error) {
	var sorter *extsort.Sorter
	var es *skg.EdgeStream
	var err error
	lt.add("skg.stream_sample_ms", timed(func() {
		if sorter, err = extsort.NewTemp(nil, 0); err == nil {
			es, err = m.StreamBallDropNCtx(run, randx.New(seed), edges, sorter)
		}
	}))
	if sorter != nil {
		defer sorter.RemoveAll()
	}
	if err != nil {
		return dataset.Meta{}, err
	}
	var meta dataset.Meta
	lt.add("dataset.put_stream_ms", timed(func() {
		meta, _, err = st.PutStream(es, "generated", "generated")
		if cerr := es.Close(); err == nil {
			err = cerr
		}
	}))
	return meta, err
}

// genStores are a generate-store set-up's two stores, one per route.
type genStores struct{ streamed, inMem *dataset.Store }

// runGenerateStore measures the streamed route on fresh seeds. The
// in-memory route must store the same graph: the end-to-end run checks
// the first seed by it, and the traced run, which times both routes'
// layers, every seed.
func runGenerateStore(r *runner) error {
	sz := r.cfg.Sizes
	m, err := skg.NewModel(initiator, sz.GenK)
	if err != nil {
		return err
	}
	warm, err := skg.NewModel(initiator, sz.WarmK)
	if err != nil {
		return err
	}
	rng := randx.New(r.cfg.Seed)
	warmSeed := rng.Uint64()
	run := pipeline.New(nil, 0, nil)
	// Set-up warms both routes on a smaller graph in throwaway stores, so
	// the measured operations do not pay for the runtime's first heap
	// growth.
	states, downs, err := setups(r, 1, func(dir string) (genStores, func(), error) {
		var st genStores
		for i, route := range []genRoute{generateStreamed, generateInMem} {
			warmStore, err := dataset.Open(filepath.Join(dir, fmt.Sprintf("warm-%d", i)))
			if err != nil {
				return st, nil, err
			}
			if _, err := route(run, warm, warmSeed, sz.WarmEdges, warmStore, layerTimes{}); err != nil {
				return st, nil, err
			}
		}
		if st.streamed, err = dataset.Open(filepath.Join(dir, "streamed")); err != nil {
			return st, nil, err
		}
		st.inMem, err = dataset.Open(filepath.Join(dir, "inmem"))
		return st, func() {}, err
	})
	if err != nil {
		return err
	}
	defer downs[0]()
	st := states[0]

	// inMem stores seed by the in-memory route and checks it gets the id
	// the streamed route gave, then deletes it.
	inMem := func(seed uint64, id string, lt layerTimes) {
		meta, err := generateInMem(run, m, seed, sz.GenEdges, st.inMem, lt)
		if err == nil {
			if meta.ID != id {
				r.mismatch("seed %d: the streamed route stored %s, the in-memory route %s", seed, id, meta.ID)
			}
			err = st.inMem.Delete(meta.ID)
		}
		r.op(err)
	}

	lt := layerTimes{}
	var reps, heapPeaks, allocs []float64
	var firstSeed uint64
	var firstID string
	heap := watchHeap()
	elapsed := closedLoop(1, sz.GenReps, r.cfg.Seconds, func(int) {
		seed := rng.Uint64()
		var meta dataset.Meta
		var err error
		alloc0 := allocatedMiB()
		start := time.Now()
		d := timed(func() { meta, err = generateStreamed(run, m, seed, sz.GenEdges, st.streamed, lt) })
		if err == nil {
			allocs = append(allocs, allocatedMiB()-alloc0)
			reps = append(reps, ms(d))
			heapPeaks = append(heapPeaks, heap.peakSinceMiB(start))
			if meta.Nodes != 1<<sz.GenK || meta.Edges != sz.GenEdges {
				r.mismatch("seed %d: stored %d nodes and %d edges, want %d and %d", seed, meta.Nodes, meta.Edges, 1<<sz.GenK, sz.GenEdges)
			}
			if firstID == "" {
				firstSeed, firstID = seed, meta.ID
				if err := checkStored(st.streamed, meta.ID); err != nil {
					r.mismatch("seed %d: %v", seed, err)
				}
			}
			if r.cfg.Trace {
				inMem(seed, meta.ID, lt)
			}
			// Keep the store at one dataset so every rep writes into the
			// same state.
			err = st.streamed.Delete(meta.ID)
		}
		r.op(err)
	})
	heap.close()
	r.set("op_peak_live_heap_mib", Median(heapPeaks))
	r.set("p50_ms", Median(reps))
	r.set("ops_per_s", float64(len(reps))/elapsed.Seconds())
	r.detail("streamed generate-to-store: %s ms", Summarize(reps, 90))
	if firstID == "" {
		return fmt.Errorf("no generate-to-store completed")
	}
	if r.cfg.Trace {
		r.set("runtime.alloc_mib_per_op", Median(allocs))
		lt.report(r)
		return nil
	}
	inMem(firstSeed, firstID, lt)
	r.detail("seed %d stored as %s by the streamed route", firstSeed, firstID)
	return nil
}

// checkStored loads a dataset back and checks its content still hashes
// to its id.
func checkStored(st *dataset.Store, id string) error {
	g, err := st.Load(id)
	if err != nil {
		return err
	}
	if got := accountant.DatasetID(g); got != id {
		return fmt.Errorf("stored graph hashes to %s, not its id %s", got, id)
	}
	return nil
}
