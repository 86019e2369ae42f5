// dpkron job — client-side job management against a running
// `dpkron serve` instance:
//
//	dpkron job list   -server URL
//	dpkron job show   -server URL -id job-N
//	dpkron job wait   -server URL -id job-N [-timeout D] [-progress]
//	dpkron job trace  -server URL -id job-N [-chrome FILE] [-width N]
//	dpkron job cancel -server URL -id job-N
//
// `wait` polls with jittered exponential backoff and honors the
// server's Retry-After header on 429 (budget or queue pressure) and
// 503 (draining for shutdown) responses, so a fleet of waiting
// clients neither hammers a busy server nor synchronizes its retries;
// with -progress it streams the job's stage transitions to stderr as
// they appear in the polled views. `trace` renders the job's span
// tree (see trace.go).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dpkron/internal/server"
)

// jobView mirrors the server's job representation (internal/server
// `view`); Result stays raw so `show` and `wait` can print it as the
// server sent it.
type jobView struct {
	ID     string                 `json:"id"`
	Kind   string                 `json:"kind"`
	Status string                 `json:"status"`
	Stages []server.StageProgress `json:"stages,omitempty"`
	Result json.RawMessage        `json:"result,omitempty"`
	Error  string                 `json:"error,omitempty"`
}

func cmdJob(args []string) error {
	fs := newFlagSet("job")
	serverURL := fs.String("server", "http://127.0.0.1:8080", "base URL of a running `dpkron serve`")
	id := fs.String("id", "", "job id (required for show, wait and cancel)")
	timeout := fs.Duration("timeout", 10*time.Minute, "wait: give up after this long")
	verbose := fs.Bool("v", false, "show: also print per-stage progress and timings")
	progress := fs.Bool("progress", false, "wait: stream stage-progress transitions to stderr while polling")
	chrome := fs.String("chrome", "", "trace: write the Chrome/Perfetto trace-event export to this file instead of rendering")
	width := fs.Int("width", 48, "trace: waterfall bar-area width in columns")
	action := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		action, args = args[0], args[1:]
	}
	if err := parse(fs, args); err != nil {
		return err
	}
	switch action {
	case "list", "show", "wait", "trace", "cancel":
	case "":
		return usagef(fs, "an action is required (list, show, wait, trace or cancel)")
	default:
		return usagef(fs, "unknown action %q (want list, show, wait, trace or cancel)", action)
	}
	if action != "list" && *id == "" {
		return usagef(fs, "-id is required for %s", action)
	}
	base := strings.TrimSuffix(*serverURL, "/")
	switch action {
	case "list":
		return jobList(base)
	case "show":
		v, err := jobGet(base, *id)
		if err != nil {
			return err
		}
		printJobVerbose(os.Stdout, v, *verbose)
		return nil
	case "trace":
		return jobTrace(base, *id, *chrome, *width)
	case "cancel":
		return jobCancel(base, *id)
	default: // wait
		return jobWait(base, *id, *timeout, *progress)
	}
}

func jobList(base string) error {
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	var out struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("decoding job list: %w", err)
	}
	if len(out.Jobs) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	for _, v := range out.Jobs {
		line := fmt.Sprintf("%-10s %-12s %s", v.ID, v.Status, v.Kind)
		if v.Error != "" {
			line += "  (" + v.Error + ")"
		}
		fmt.Println(line)
	}
	return nil
}

func jobGet(base, id string) (*jobView, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decoding job: %w", err)
	}
	return &v, nil
}

func jobCancel(base, id string) error {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return httpError(resp)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return fmt.Errorf("decoding cancel response: %w", err)
	}
	fmt.Printf("%s: %s\n", v.ID, v.Status)
	return nil
}

// jobWait polls until the job reaches a terminal state. Transient
// trouble — connection refused (the server may be mid-restart,
// replaying its journal), 429 back-pressure, 503 drain — is retried
// with jittered exponential backoff, capped and reset on success; a
// Retry-After header overrides the computed delay. With progress set,
// stage transitions observed between polls stream to stderr in the
// shared [stage] format.
func jobWait(base, id string, timeout time.Duration, progress bool) error {
	deadline := time.Now().Add(timeout)
	delay := 50 * time.Millisecond
	const maxDelay = 5 * time.Second
	var stream *stageStreamer
	if progress {
		stream = newStageStreamer(os.Stderr)
	}
	for {
		v, retryAfter, err := jobGetRetryable(base, id)
		if err != nil {
			return err
		}
		if v != nil {
			stream.observe(v.Stages)
			switch v.Status {
			case "done":
				printJob(os.Stdout, v, false)
				return nil
			case "failed", "cancelled":
				printJob(os.Stderr, v, false)
				return fmt.Errorf("job %s %s", v.ID, v.Status)
			}
			// Pending or running: poll again, gently.
			delay = 50 * time.Millisecond
		} else {
			delay = min(2*delay, maxDelay)
		}
		sleep := jitter(delay)
		if retryAfter > 0 {
			sleep = retryAfter
		}
		if time.Now().Add(sleep).After(deadline) {
			return fmt.Errorf("timed out after %s waiting for job %s", timeout, id)
		}
		time.Sleep(sleep)
	}
}

// stageStreamer turns successive polled stage views into the CLI's
// [stage] transition lines: first sight announces the stage, coarse
// (>= 25%) fraction steps report progress, completion reports the
// stage's wall-clock seconds. Polls that skip intermediate states
// print only what the latest view shows — the stream is a digest,
// not a replay. A nil streamer ignores everything.
type stageStreamer struct {
	w    io.Writer
	last map[string]float64 // last printed frac; >= 1 means done printed
}

func newStageStreamer(w io.Writer) *stageStreamer {
	return &stageStreamer{w: w, last: map[string]float64{}}
}

func (s *stageStreamer) observe(stages []server.StageProgress) {
	if s == nil {
		return
	}
	for _, st := range stages {
		prev, seen := s.last[st.Stage]
		switch {
		case prev >= 1:
			// already reported done
		case st.Frac >= 1:
			if !seen {
				fmt.Fprintf(s.w, "[stage] %s ...\n", st.Stage)
			}
			if st.Seconds > 0 {
				fmt.Fprintf(s.w, "[stage] %s done (%.3fs)\n", st.Stage, st.Seconds)
			} else {
				fmt.Fprintf(s.w, "[stage] %s done\n", st.Stage)
			}
			s.last[st.Stage] = 1
		case !seen:
			fmt.Fprintf(s.w, "[stage] %s ...\n", st.Stage)
			s.last[st.Stage] = 0
			if st.Frac >= 0.25 {
				fmt.Fprintf(s.w, "[stage] %s %3.0f%%\n", st.Stage, st.Frac*100)
				s.last[st.Stage] = st.Frac
			}
		case st.Frac-prev >= 0.25:
			fmt.Fprintf(s.w, "[stage] %s %3.0f%%\n", st.Stage, st.Frac*100)
			s.last[st.Stage] = st.Frac
		}
	}
}

// jobGetRetryable fetches a job view, distinguishing retryable
// conditions (nil view, nil error, optional Retry-After duration)
// from permanent failures.
func jobGetRetryable(base, id string) (*jobView, time.Duration, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		// Connection-level failure: the server may be restarting.
		return nil, 0, nil
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var v jobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return nil, 0, fmt.Errorf("decoding job: %w", err)
		}
		return &v, 0, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil, parseRetryAfter(resp.Header.Get("Retry-After")), nil
	default:
		return nil, 0, httpError(resp)
	}
}

// parseRetryAfter reads the delay-seconds form of a Retry-After
// header (the only form this server emits); anything else yields 0,
// meaning "use the computed backoff".
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// jitter spreads a delay uniformly over [d/2, d) so independent
// clients waiting on the same server decorrelate their retries.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + rand.N(d/2)
}

// printJobVerbose is `job show`'s renderer: the standard job block,
// with per-stage progress and wall-clock timings when -v is set.
func printJobVerbose(w *os.File, v *jobView, verbose bool) {
	fmt.Fprintf(w, "job:    %s\nkind:   %s\nstatus: %s\n", v.ID, v.Kind, v.Status)
	if verbose {
		for _, st := range v.Stages {
			line := fmt.Sprintf("stage:  %-28s %5.1f%%", st.Stage, st.Frac*100)
			if st.Seconds > 0 {
				line += fmt.Sprintf("  %.3fs", st.Seconds)
			}
			fmt.Fprintln(w, line)
		}
	}
	printJobTail(w, v, true)
}

func printJob(w *os.File, v *jobView, withResult bool) {
	fmt.Fprintf(w, "job:    %s\nkind:   %s\nstatus: %s\n", v.ID, v.Kind, v.Status)
	printJobTail(w, v, withResult)
}

// printJobTail renders the error and result lines shared by the plain
// and verbose job renderers.
func printJobTail(w *os.File, v *jobView, withResult bool) {
	if v.Error != "" {
		fmt.Fprintf(w, "error:  %s\n", v.Error)
	}
	if len(v.Result) > 0 {
		var buf bytes.Buffer
		if json.Indent(&buf, v.Result, "", "  ") == nil {
			fmt.Fprintf(w, "result: %s\n", buf.String())
		} else {
			fmt.Fprintf(w, "result: %s\n", v.Result)
		}
	} else if withResult && v.Status == "done" {
		fmt.Fprintln(w, "result: (not retained)")
	}
}

func httpError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	if body.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", body.Error, resp.StatusCode)
	}
	return fmt.Errorf("server: HTTP %d", resp.StatusCode)
}
