package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dpkron/internal/release"
	"dpkron/internal/server"
	"dpkron/internal/skg"
)

// onlyRelease returns the payload of the single entry in a release
// cache directory.
func onlyRelease(t *testing.T, dir string) server.FitResult {
	t.Helper()
	c, err := release.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	list, err := c.List()
	if err != nil || len(list) != 1 {
		t.Fatalf("cache %s holds %d entries (%v), want 1", dir, len(list), err)
	}
	e, err := c.Info(list[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := server.DecodeRelease(e)
	if !ok {
		t.Fatalf("entry %s is not a private release: %s", e.Fingerprint, e.Payload)
	}
	return fr
}

// serverFit posts a private fit of a stored dataset and returns the
// HTTP status and the finished job's result.
func serverFit(t *testing.T, base, id string, seed uint64) (int, server.CachedFitResult) {
	t.Helper()
	code, resp, _ := postJSON(t, base+"/v1/fit",
		fmt.Sprintf(`{"method":"private","eps":0.2,"delta":0.01,"seed":%d,"dataset_id":%q}`, seed, id))
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: %d %v", code, resp)
	}
	job := resp
	if resp["status"] != "done" {
		job = pollDone(t, base, resp["id"].(string), 60*time.Second)
	}
	if job["status"] != "done" {
		t.Fatalf("fit job ended %v: %v", job["status"], job)
	}
	raw, _ := json.Marshal(job["result"])
	var res server.CachedFitResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return code, res
}

// TestCLIServerShareReleases: `dpkron fit` and `dpkron serve` run one
// fit operation, so a release either writes is the other's cache hit.
// The CLI fits an edge-list file; the server fits the same graph
// imported into a store, by id. The two key the question alike only if
// the file's fingerprint equals the stored id.
func TestCLIServerShareReleases(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	edge := filepath.Join(dir, "g.txt")
	store := filepath.Join(dir, "store")
	cache := filepath.Join(dir, "cache")
	run(t, bin, "generate", "-a", "0.95", "-b", "0.5", "-c", "0.3", "-k", "8", "-seed", "2", "-out", edge)
	out := run(t, bin, "dataset", "import", "-store", store, "-in", edge)
	id := strings.TrimSuffix(strings.Fields(out)[1], ":")

	// A CLI-written release...
	cold := run(t, bin, "fit", "-in", edge, "-seed", "5", "-release-cache", cache)
	cliRel := onlyRelease(t, cache)

	// ...is answered by a server on the same cache as cached, with the
	// same initiator, features and receipt.
	srv := startServe(t, bin, "-workers", "1", "-store", store, "-release-cache", cache)
	code, hit := serverFit(t, srv.base, id, 5)
	if code != http.StatusOK || !hit.Cached || !strings.HasPrefix(hit.Release, "rel-") {
		t.Fatalf("server answer to the CLI's question: status %d, cached %v, release %q; want 200 from the cache",
			code, hit.Cached, hit.Release)
	}
	if hit.Initiator != cliRel.Initiator || !reflect.DeepEqual(hit.Features, cliRel.Features) ||
		!reflect.DeepEqual(hit.Receipt, cliRel.Receipt) {
		t.Fatalf("server hit differs from the CLI release:\nhit: %+v\ncli: %+v", hit.FitResult, cliRel)
	}
	init := skg.Initiator{A: hit.Initiator.A, B: hit.Initiator.B, C: hit.Initiator.C}
	if want := fmt.Sprintf("private initiator: %s  (k=%d, %s)\n", init, hit.K, *hit.Privacy); !strings.HasPrefix(cold, want) {
		t.Fatalf("CLI cold fit does not print the served initiator:\n%s\nwant prefix %q", cold, want)
	}

	// A server-written release prints as a cache hit in `dpkron fit`,
	// reading the graph from the store by id.
	code, served := serverFit(t, srv.base, id, 6)
	if code != http.StatusAccepted || served.Cached {
		t.Fatalf("new question: status %d, cached %v; want a 202 cold fit", code, served.Cached)
	}
	out = run(t, bin, "fit", "-in", id, "-store", store, "-seed", "6", "-release-cache", cache)
	init = skg.Initiator{A: served.Initiator.A, B: served.Initiator.B, C: served.Initiator.C}
	if want := fmt.Sprintf("private initiator: %s  (k=%d, %s)\n", init, served.K, *served.Privacy); !strings.HasPrefix(out, want) ||
		!strings.HasSuffix(out, " (cached; no budget spent)\n") {
		t.Fatalf("CLI fit of the server's question is not a cache hit of its release:\n%s\nwant prefix %q", out, want)
	}
}

// TestCLIServerGenerateIdentical: `dpkron generate` and
// POST /v1/generate draw through one function, so for the same
// request they give the same edge list under every method, and the
// same stored file.
func TestCLIServerGenerateIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	srvStore := filepath.Join(dir, "srv-store")
	cliStore := filepath.Join(dir, "cli-store")
	srv := startServe(t, bin, "-workers", "1", "-store", srvStore)
	generate := func(body string) map[string]any {
		t.Helper()
		code, resp, _ := postJSON(t, srv.base+"/v1/generate", body)
		if code != http.StatusAccepted {
			t.Fatalf("POST /v1/generate %s: %d %v", body, code, resp)
		}
		job := pollDone(t, srv.base, resp["id"].(string), 60*time.Second)
		if job["status"] != "done" {
			t.Fatalf("generate job ended %v: %v", job["status"], job)
		}
		return job["result"].(map[string]any)
	}
	for _, method := range []string{"exact", "balldrop", "auto"} {
		args := []string{"generate", "-a", "0.95", "-b", "0.5", "-c", "0.3", "-k", "8", "-seed", "4", "-method", method}
		body := fmt.Sprintf(`{"a":0.95,"b":0.5,"c":0.3,"k":8,"seed":4,"method":%q`, method)

		cli := run(t, bin, args...)
		if got := generate(body + "}")["edgelist"]; got != cli {
			t.Errorf("%s: server edge list differs from the CLI's:\nserver:\n%.300v\ncli:\n%.300s", method, got, cli)
		}

		run(t, bin, append(args, "-store", cliStore)...)
		ds := generate(body + `,"store":true,"omit_edges":true}`)["dataset"].(map[string]any)
		file := ds["id"].(string) + ".dpkg"
		want, err := os.ReadFile(filepath.Join(cliStore, file))
		if err != nil {
			t.Fatalf("%s: the CLI stored no %s: %v", method, file, err)
		}
		got, err := os.ReadFile(filepath.Join(srvStore, file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: stored %s differs between server and CLI (%d vs %d bytes)", method, file, len(got), len(want))
		}
	}
}

// TestCLISeedZero: the server reads a zero seed as an absent field and
// defaults it to 1, but `-seed 0` on the command line is an explicit
// seed. testdata/generate-seed0.golden and testdata/fit-seed0.golden
// hold what `dpkron generate` and `dpkron fit` printed for seed 0
// before both ran the server's operations; they must still print it.
func TestCLISeedZero(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	gen := []string{"generate", "-a", "0.95", "-b", "0.5", "-c", "0.3", "-k", "6", "-seed", "0"}
	got := run(t, bin, gen...) + run(t, bin, append(gen, "-store", filepath.Join(dir, "store"))...)
	if want := readGolden(t, "generate-seed0.golden"); got != want {
		t.Fatalf("generate -seed 0 differs from testdata/generate-seed0.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if seed1 := run(t, bin, append(gen[:len(gen)-1:len(gen)-1], "1")...); strings.HasPrefix(got, seed1) {
		t.Fatal("generate -seed 0 drew the seed-1 graph")
	}

	edge := filepath.Join(dir, "g.txt")
	run(t, bin, "generate", "-a", "0.95", "-b", "0.5", "-c", "0.3", "-k", "8", "-seed", "2", "-out", edge)
	got = run(t, bin, "fit", "-in", edge, "-method", "private", "-seed", "0") +
		run(t, bin, "fit", "-in", edge, "-method", "mom", "-k", "8", "-seed", "0") +
		run(t, bin, "fit", "-in", edge, "-method", "mle", "-k", "8", "-seed", "0")
	if want := readGolden(t, "fit-seed0.golden"); got != want {
		t.Fatalf("fit -seed 0 differs from testdata/fit-seed0.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
