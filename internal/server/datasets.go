package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"dpkron/internal/dataset"
)

// Dataset endpoints (Options.Datasets must be configured):
//
//	POST   /v1/datasets        import a graph (streamed body: SNAP text,
//	                           gzip, Matrix Market or DPKG binary;
//	                           ?name= labels it). Returns the dataset's
//	                           view, 201 on first import, 200 when the
//	                           content was already stored.
//	GET    /v1/datasets        list stored datasets
//	GET    /v1/datasets/{id}   one dataset's view
//	DELETE /v1/datasets/{id}   remove a dataset (spent budget remains)
//
// Uploads stream through the importers straight into the store — they
// are not subject to the 64 MiB inline-JSON body cap; Options.
// MaxUploadBytes (default 1 GiB) bounds them instead.

// DatasetView is a stored dataset as every HTTP response shows it:
// only the fields that are public under edge DP or chosen by the
// caller. The edge count has sensitivity 1 and the file size is a
// function of it, so neither leaves the server; `dpkron dataset` on
// the local store prints the full dataset.Meta.
type DatasetView struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	Nodes    int       `json:"nodes"`
	Source   string    `json:"source,omitempty"`
	Format   int       `json:"format,omitempty"`
	Imported time.Time `json:"imported"`
}

func publicView(m dataset.Meta) *DatasetView {
	return &DatasetView{ID: m.ID, Name: m.Name, Nodes: m.Nodes, Source: m.Source, Format: m.Format, Imported: m.Imported}
}

// errNoStore answers every dataset route, by-id fits included, on a
// server without a store — with the 404 unknown ids get, so probing
// cannot tell "no store" from "not stored".
var errNoStore = errors.New("no dataset store configured (start the server with -store)")

// requireStore resolves the configured dataset store or answers 404.
func (s *Server) requireStore(w http.ResponseWriter) *dataset.Store {
	if s.opts.Datasets == nil {
		writeError(w, http.StatusNotFound, errNoStore.Error())
		return nil
	}
	return s.opts.Datasets
}

// datasetStatus maps store errors onto HTTP statuses: ErrNotFound and
// malformed ids are 404s, anything else a 500.
func datasetStatus(err error) int {
	if errors.Is(err, dataset.ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func (s *Server) handleDatasetImport(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	// MaxBytesReader bounds the wire bytes; MaxBytes bounds what a
	// gzipped body may decompress to, so a gzip bomb cannot expand past
	// what an uncompressed upload could ship.
	g, format, err := dataset.DecodeGraph(body, dataset.DecodeOptions{
		MaxNodes: maxGraphNodes,
		MaxBytes: s.opts.MaxUploadBytes,
	})
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) || errors.Is(err, dataset.ErrTooLarge) {
			msg := fmt.Sprintf("upload exceeds the %d-byte limit", s.opts.MaxUploadBytes)
			s.rejectAdmission(r, rejectBodyTooLarge, "", msg)
			writeError(w, http.StatusRequestEntityTooLarge, msg)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	m, created, err := st.Put(g, r.URL.Query().Get("name"), string(format))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	status := http.StatusCreated
	if !created {
		status = http.StatusOK // identical content already stored
	}
	writeJSON(w, status, publicView(m))
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	list, err := st.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	views := make([]*DatasetView, len(list))
	for i, m := range list {
		views[i] = publicView(m)
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": views})
}

func (s *Server) handleDatasetMeta(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	m, err := st.Meta(r.PathValue("id"))
	if err != nil {
		writeError(w, datasetStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, publicView(m))
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	id := r.PathValue("id")
	if err := st.Delete(id); err != nil {
		writeError(w, datasetStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}
