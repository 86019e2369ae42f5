// dpkron job trace / dpkron audit — the client side of the tracing
// and privacy-audit surface:
//
//	dpkron job trace -server URL -id job-N [-chrome FILE] [-width N]
//	dpkron audit <dataset> -ledger FILE [-journal FILE]
//
// `job trace` fetches GET /v1/jobs/{id}/trace and renders the span
// tree as an ASCII waterfall (audit events as '!' marks), or saves
// the Chrome/Perfetto trace-event export for chrome://tracing and
// ui.perfetto.dev. `audit` needs no server: it replays a ledger's
// receipts (stamped with their debit time) against the journal's
// admission records into a chronological spend report — every ε/δ
// the dataset ever paid, which job and request charged it, and the
// running totals.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"dpkron/internal/accountant"
	"dpkron/internal/dp"
	"dpkron/internal/journal"
	"dpkron/internal/textplot"
	"dpkron/internal/trace"
)

// jobTrace fetches and renders one job's span tree. With chromePath
// it saves the trace-event export instead.
func jobTrace(base, id, chromePath string, width int) error {
	if chromePath != "" {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/trace?format=chrome")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return httpError(resp)
		}
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, resp.Body); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", chromePath)
		return nil
	}
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	var tree trace.Tree
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	}
	fmt.Print(renderTrace(&tree, width))
	return nil
}

// renderTrace turns a span tree into the waterfall text: header,
// chart (one row per span, '!' marks where audit events landed), and
// the audit-event detail lines in chronological order.
func renderTrace(tree *trace.Tree, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s", tree.TraceID)
	if tree.RemoteParent != "" {
		fmt.Fprintf(&b, " (client parent span %s)", tree.RemoteParent)
	}
	b.WriteByte('\n')
	if len(tree.Spans) == 0 {
		b.WriteString("(no spans)\n")
		return b.String()
	}
	t0 := tree.Spans[0].Start
	var spans []textplot.WaterfallSpan
	type auditLine struct {
		at   float64
		text string
	}
	var audits []auditLine
	tree.Walk(func(n *trace.Node, depth int) {
		ws := textplot.WaterfallSpan{
			Label: n.Name,
			Start: n.Start.Sub(t0).Seconds(),
			Dur:   n.Seconds,
			Depth: depth,
			Open:  n.Open,
		}
		for _, e := range n.Events {
			at := e.Time.Sub(t0).Seconds()
			ws.Marks = append(ws.Marks, at)
			audits = append(audits, auditLine{at, formatAuditEvent(e)})
		}
		spans = append(spans, ws)
	})
	b.WriteString(textplot.Waterfall(spans, textplot.WaterfallOptions{Width: width}))
	if len(audits) > 0 {
		sort.SliceStable(audits, func(i, j int) bool { return audits[i].at < audits[j].at })
		b.WriteString("\naudit events:\n")
		for _, a := range audits {
			fmt.Fprintf(&b, "  %s\n", a.text)
		}
	}
	return b.String()
}

// formatAuditEvent renders one span event as an audit line. Ledger
// and accountant debit/refusal events get their ε/δ spelled out; any
// other event falls back to name plus sorted attrs.
func formatAuditEvent(e trace.EventNode) string {
	switch e.Name {
	case "ledger-debit", "accountant-debit":
		return fmt.Sprintf("%-17s %-40s %-14s eps=%s delta=%s (remaining eps=%s delta=%s)",
			e.Name, e.Attrs["query"], e.Attrs["mechanism"],
			e.Attrs["eps"], e.Attrs["delta"], e.Attrs["remaining_eps"], e.Attrs["remaining_delta"])
	case "ledger-refusal", "accountant-refusal":
		return fmt.Sprintf("%-17s %s", e.Name, e.Attrs["error"])
	}
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+e.Attrs[k])
	}
	return fmt.Sprintf("%-17s %s", e.Name, strings.Join(parts, " "))
}

// cmdAudit is `dpkron audit <dataset>`: the offline privacy-audit
// report. The ledger is the source of truth for what was spent (each
// receipt stamped with its debit time); the journal, when given,
// cross-references each spend token back to the job and originating
// request that caused it.
func cmdAudit(args []string) error {
	fs := newFlagSet("audit")
	ledgerPath := fs.String("ledger", "", "privacy-budget ledger file (required)")
	journalPath := fs.String("journal", "", "job journal file; links each debit to its job and request")
	ds := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		ds, args = args[0], args[1:]
	}
	if err := parse(fs, args); err != nil {
		return err
	}
	if ds == "" {
		return usagef(fs, "a dataset id is required (dpkron audit <dataset> -ledger FILE)")
	}
	if *ledgerPath == "" {
		return usagef(fs, "-ledger is required")
	}
	led, err := accountant.Open(*ledgerPath)
	if err != nil {
		return err
	}
	acct, ok, err := led.Account(ds)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("ledger %s has no dataset %q", led.Path(), ds)
	}
	// Read the journal without locking it: an audit must not contend
	// with (or be refused by) a server holding the journal open, so it
	// decodes the bytes directly — the same tolerant decoder recovery
	// uses, stopping at a torn tail.
	byToken := map[string]journal.Record{}
	if *journalPath != "" {
		data, err := os.ReadFile(*journalPath)
		if err != nil {
			return err
		}
		recs, _, err := journal.Decode(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpkron audit: journal tail unreadable (%v); report covers the decodable prefix\n", err)
		}
		for _, rec := range recs {
			if rec.Token != "" {
				byToken[rec.Token] = rec
			}
		}
	}
	fmt.Printf("dataset %s\nbudget  %s\nspent   %s\nremaining %s\n\n", ds, acct.Budget, acct.Spent, acct.Remaining())
	if len(acct.Receipts) == 0 {
		fmt.Println("no spends recorded")
		return nil
	}
	// Receipts already land in ledger order; the Time stamp (PR 10+)
	// makes the chronology explicit. Older receipts without one sort
	// stably in place.
	receipts := append([]accountant.Receipt(nil), acct.Receipts...)
	sort.SliceStable(receipts, func(i, j int) bool {
		if receipts[i].Time == nil || receipts[j].Time == nil {
			return false
		}
		return receipts[i].Time.Before(*receipts[j].Time)
	})
	var running dp.Budget
	for i, r := range receipts {
		when := "(no timestamp)"
		if r.Time != nil {
			when = r.Time.UTC().Format("2006-01-02T15:04:05.000Z")
		}
		running = dp.Compose(running, r.Total)
		origin := ""
		if rec, ok := byToken[r.Token]; ok {
			origin = "  job " + rec.Job
			if rec.RequestID != "" {
				origin += "  request " + rec.RequestID
			}
			if rec.TraceID != "" {
				origin += "  trace " + rec.TraceID
			}
		}
		fmt.Printf("#%d  %s  %s  (running total %s)%s\n", i+1, when, r.Total, running, origin)
		for _, c := range r.Charges {
			fmt.Printf("      %-40s %-14s %s\n", c.Query, c.Mechanism, c.Budget())
		}
	}
	return nil
}
