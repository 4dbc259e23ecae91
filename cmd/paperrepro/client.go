package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"branchconf/internal/serve"
)

// clientMain is the daemon's thin CLI client: it maps the familiar
// one-shot flags onto a report request, or fetches the daemon's stats and
// health endpoints.
func clientMain(args []string, stdout, errW io.Writer) error {
	fs := flag.NewFlagSet("paperrepro client", flag.ContinueOnError)
	fs.SetOutput(errW)
	var (
		addr          = fs.String("addr", "http://127.0.0.1:8091", "daemon base URL")
		branches      = fs.Uint64("branches", 0, "dynamic branches per benchmark (0 = benchmark default)")
		only          = fs.String("only", "", "comma-separated experiment ids to run (default: all)")
		skipAblations = fs.Bool("skip-ablations", false, "run only the paper's own artefacts")
		noTimings     = fs.Bool("no-timings", false, "omit per-experiment wall-time lines (deterministic bytes; served from the daemon's report cache when warm)")
		segBranches   = fs.Int64("segment-branches", -1, "stream traces in segments of this many branches (-1 = auto)")
		traceFile     = fs.String("trace", "", "recorded ChampSim trace for the realtrace experiment — a path on the daemon's machine; the daemon resolves its content identity")
		out           = fs.String("o", "", "write the report to this file instead of stdout")
		stats         = fs.Bool("stats", false, "fetch the daemon's cache-stats JSON instead of a report")
		ready         = fs.Bool("ready", false, "probe the daemon's readiness endpoint instead of a report")
		timeout       = fs.Duration("timeout", 10*time.Minute, "request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("client: unexpected arguments %v", fs.Args())
	}
	if *segBranches == 0 || *segBranches < -1 {
		return fmt.Errorf("-segment-branches must be at least 1 (or -1 for auto), got %d", *segBranches)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := &serve.Client{Base: *addr}

	switch {
	case *ready:
		if err := c.Ready(ctx); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "ready")
		return nil
	case *stats:
		snap, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		return serve.WriteCacheStatsJSON(stdout, snap)
	}

	req := serve.ReportRequest{
		Branches:      *branches,
		SkipAblations: *skipAblations,
		NoTimings:     *noTimings,
		TraceFile:     *traceFile,
	}
	if *segBranches > 0 {
		req.SegmentBranches = uint64(*segBranches)
	}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			req.Only = append(req.Only, strings.TrimSpace(id))
		}
	}
	report, cached, err := c.Report(ctx, req)
	if err != nil {
		return err
	}
	if cached {
		fmt.Fprintln(errW, "client: served from the daemon's report cache")
	}
	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = w.Write(report)
	return err
}
