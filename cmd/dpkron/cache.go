package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"dpkron/internal/release"
	"dpkron/internal/server"
	"dpkron/internal/skg"
)

// printFit renders a fit from its result payload, so a cold private
// fit and a cache-served one print the same lines and scripts parsing
// the output cannot tell them apart.
func printFit(fr server.FitResult) {
	init := skg.Initiator{A: fr.Initiator.A, B: fr.Initiator.B, C: fr.Initiator.C}
	switch fr.Method {
	case "mom":
		fmt.Printf("KronMom initiator: %s  (k=%d, objective=%.3g)\n", init, fr.K, *fr.Objective)
	case "mle":
		fmt.Printf("KronFit initiator: %s  (k=%d, ll=%.1f)\n", init, fr.K, *fr.LogLikelihood)
	default:
		fmt.Printf("private initiator: %s  (k=%d, %s)\n", init, fr.K, *fr.Privacy)
		if f := fr.Features; f != nil {
			fmt.Printf("private features:  E=%.1f H=%.1f T=%.1f Delta=%.1f\n", f.E, f.H, f.T, f.Delta)
		}
		for _, c := range fr.Receipt.Charges {
			fmt.Printf("  budget: %-40s %s %s\n", c.Query, c.Mechanism, c.Budget())
		}
	}
}

// cmdCache manages the release cache: `list` shows every memoized
// private fit (key and integrity metadata), `info` dumps one entry
// with its stored payload, and `rm` deletes — forcing the next
// identical fit to recompute with a fresh budget debit. The same -dir
// directory drives `fit -release-cache` and `serve -release-cache`.
func cmdCache(args []string) error {
	fs := newFlagSet("cache")
	dir := fs.String("dir", "", "release cache directory (required)")
	id := fs.String("id", "", "release fingerprint, rel-... (required for info/rm)")
	action := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		action, args = args[0], args[1:]
	}
	if err := parse(fs, args); err != nil {
		return err
	}
	switch action {
	case "list", "info", "rm":
	case "":
		return usagef(fs, "an action is required (list, info or rm)")
	default:
		return usagef(fs, "unknown action %q (want list, info or rm)", action)
	}
	if *dir == "" {
		return usagef(fs, "-dir is required")
	}
	if action != "list" && *id == "" {
		return usagef(fs, "-id is required for %s", action)
	}
	c, err := release.Open(*dir)
	if err != nil {
		return err
	}
	switch action {
	case "list":
		list, err := c.List()
		if err != nil {
			return err
		}
		if len(list) == 0 {
			fmt.Printf("cache %s: no releases (a private fit with -release-cache stores one)\n", c.Dir())
			return nil
		}
		for _, e := range list {
			fmt.Printf("%s  %s  eps=%g delta=%g k=%d seed=%d  %s  %d bytes\n",
				e.Fingerprint, e.Key.DatasetID, e.Key.Eps, e.Key.Delta, e.Key.K, e.Key.Seed,
				e.Stored.Format("2006-01-02T15:04:05Z"), e.Bytes)
		}
	case "info":
		e, err := c.Info(*id)
		if err != nil {
			return err
		}
		fmt.Printf("fingerprint: %s\ndataset:     %s\neps:         %g\ndelta:       %g\nk:           %d\nseed:        %d\npolicy:      %s\nmechanisms:  %s\nstored:      %s\nchecksum:    %s\nbytes:       %d\n",
			e.Fingerprint, e.Key.DatasetID, e.Key.Eps, e.Key.Delta, e.Key.K, e.Key.Seed,
			e.Key.Policy, e.Key.Mechanisms, e.Stored.Format("2006-01-02T15:04:05Z"), e.Checksum, e.Bytes)
		var pretty map[string]any
		if err := json.Unmarshal(e.Payload, &pretty); err == nil {
			b, _ := json.MarshalIndent(pretty, "", "  ")
			fmt.Printf("payload:\n%s\n", b)
		}
	case "rm":
		if err := c.Delete(*id); err != nil {
			return err
		}
		fmt.Printf("removed %s\n", *id)
		fmt.Fprintln(os.Stderr, "note: the next identical fit recomputes and debits its ledger afresh")
	}
	return nil
}
