package main

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"dpkron/internal/dataset"
	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
)

// cmdDataset manages the persistent dataset store: `import` ingests a
// graph (SNAP text, gzip, Matrix Market or DPKG binary — sniffed) under
// its content-addressed id, `list`/`info` inspect the stored metadata
// and on-disk layout, `export` re-emits canonical edge-list text, and
// `rm` deletes. Imports are stored in the mmap-ready v2 layout; v1
// files left by older binaries still load. The same -store directory
// drives `fit -store`/`stats -store` (where -in may name a stored id)
// and `serve -store` (private fits by id over HTTP).
func cmdDataset(args []string) error {
	fs := newFlagSet("dataset")
	storeDir := fs.String("store", "", "dataset store directory (required)")
	in := fs.String("in", "", "input file, or - for stdin (import)")
	name := fs.String("name", "", "label for the imported dataset (import)")
	id := fs.String("id", "", "dataset id (required for info/export/rm)")
	out := fs.String("out", "", "output file (export; default stdout)")
	action := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		action, args = args[0], args[1:]
	}
	if err := parse(fs, args); err != nil {
		return err
	}
	switch action {
	case "import", "list", "info", "export", "rm":
	case "":
		return usagef(fs, "an action is required (import, list, info, export or rm)")
	default:
		return usagef(fs, "unknown action %q (want import, list, info, export or rm)", action)
	}
	if *storeDir == "" {
		return usagef(fs, "-store is required")
	}
	needID := action == "info" || action == "export" || action == "rm"
	if needID && *id == "" {
		return usagef(fs, "-id is required for %s", action)
	}
	if action == "import" && *in == "" {
		return usagef(fs, "-in is required for import")
	}
	st, err := dataset.Open(*storeDir)
	if err != nil {
		return err
	}
	switch action {
	case "import":
		r := os.Stdin
		if *in != "-" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		label := *name
		if label == "" && *in != "-" {
			label = *in
		}
		m, err := st.ImportReader(r, label, dataset.DecodeOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("imported %s: %d nodes, %d edges (%s, v%d, %d bytes)\n",
			m.ID, m.Nodes, m.Edges, m.Source, max(m.Format, 1), m.Bytes)
	case "list":
		list, err := st.List()
		if err != nil {
			return err
		}
		if len(list) == 0 {
			fmt.Printf("store %s: no datasets (add one with `dpkron dataset import`)\n", st.Dir())
			return nil
		}
		for _, m := range list {
			fmt.Printf("%s  %9d nodes  %10d edges  %-9s  %s  %s\n",
				m.ID, m.Nodes, m.Edges, m.Source, m.Imported.Format("2006-01-02T15:04:05Z"), m.Name)
		}
	case "info":
		m, err := st.Meta(*id)
		if err != nil {
			return err
		}
		fmt.Printf("id:       %s\nname:     %s\nnodes:    %d\nedges:    %d\nsource:   %s\nimported: %s\n",
			m.ID, m.Name, m.Nodes, m.Edges, m.Source, m.Imported.Format("2006-01-02T15:04:05Z"))
		// The layout facts come from sniffing the live file, not the
		// sidecar, so a legacy v1 or hand-replaced graph reports what a
		// Load would actually see.
		fi, err := st.FileInfo(*id)
		if err != nil {
			return err
		}
		fmt.Printf("bytes:    %d\nformat:   v%d\nmmap:     %v\n", fi.Bytes, fi.Format, fi.Mmap)
	case "export":
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := st.ExportEdgeList(*id, w); err != nil {
			return err
		}
		if *out != "" {
			fmt.Printf("wrote %s\n", *out)
		}
	case "rm":
		if err := st.Delete(*id); err != nil {
			return err
		}
		fmt.Printf("removed %s\n", *id)
	}
	return nil
}

// loadGraph reads a graph for -in: a stored dataset id (when -store is
// set and holds it), a file path, or stdin ("-"). File and stdin input
// is format-sniffed — SNAP text, gzipped SNAP (.txt.gz), Matrix Market
// and DPKG binary all load transparently. The returned id is the stored
// dataset's id (its content fingerprint) when -in named one, and empty
// otherwise.
// The read runs on its own goroutine so a stalled producer (an upstream
// pipe that never closes) cannot outlive the run's -timeout deadline;
// on cancellation the goroutine is abandoned (the process is about to
// exit anyway).
func loadGraph(run *pipeline.Run, path, storeDir string) (*graph.Graph, string, error) {
	type loaded struct {
		g   *graph.Graph
		id  string
		err error
	}
	ch := make(chan loaded, 1)
	go func() {
		g, id, err := loadGraphSync(path, storeDir)
		ch <- loaded{g, id, err}
	}()
	select {
	case l := <-ch:
		return l.g, l.id, l.err
	case <-run.Context().Done():
		return nil, "", run.Err()
	}
}

func loadGraphSync(path, storeDir string) (*graph.Graph, string, error) {
	if storeDir != "" {
		st, err := dataset.Open(storeDir)
		if err != nil {
			return nil, "", err
		}
		if st.Has(path) {
			g, err := st.Load(path)
			return g, path, err
		}
		if strings.HasPrefix(path, "ds-") {
			if _, statErr := os.Stat(path); statErr != nil {
				return nil, "", fmt.Errorf("dataset %s not in store %s (and no such file): %w",
					path, storeDir, dataset.ErrNotFound)
			}
		}
	} else if strings.HasPrefix(path, "ds-") {
		if _, statErr := os.Stat(path); statErr != nil {
			return nil, "", errors.New("-in looks like a dataset id; pass -store DIR to resolve it")
		}
	}
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		r = f
	}
	g, _, err := dataset.DecodeGraph(r, dataset.DecodeOptions{})
	return g, "", err
}
