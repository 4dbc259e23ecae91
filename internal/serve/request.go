// Package serve turns the one-shot report run into a resident confidence
// service: it owns the report builder both the CLI and the daemon render
// through (so daemon-served bytes are identical to one-shot bytes by
// construction), the HTTP server that keeps every cache tier hot in one
// process, the admission controller bounding concurrent report work, the
// machine-readable cache-stats encoder, and the thin HTTP client the CLI
// and the load generator drive requests through.
package serve

import (
	"fmt"
	"sort"
	"strings"

	"branchconf/internal/exp"
	"branchconf/internal/workload"
)

// MaterializeCeiling is the largest per-benchmark branch budget the engine
// will hold as a whole materialized trace (~2 bytes/branch in the replay
// buffer, plus the flattened and annotated forms on top). Budgets above it
// stream in segments unless the request sets the segment size itself.
const MaterializeCeiling = 8 << 20

// AutoSegmentBranches is the segment size auto-streaming picks: large
// enough that per-segment overhead (checkpoint encode, artifact keys) is
// noise, small enough that a handful of in-flight segments stay around
// tens of megabytes.
const AutoSegmentBranches = 1 << 20

// ReportRequest selects and parameterises one report: the JSON body of the
// daemon's report endpoint, and the struct the one-shot CLI's flags decode
// into. Budgets map onto the familiar -branches/-only semantics.
type ReportRequest struct {
	// Branches is the per-benchmark dynamic branch budget (0 = the
	// benchmark default).
	Branches uint64 `json:"branches,omitempty"`
	// Only restricts the run to these experiment ids (empty = all
	// non-opt-in experiments).
	Only []string `json:"only,omitempty"`
	// SkipAblations drops the ablation-* experiments.
	SkipAblations bool `json:"skip_ablations,omitempty"`
	// NoTimings omits the per-experiment "_(ran in Xs)_" wall-time lines,
	// making the report bytes fully deterministic — the form byte-identity
	// checks compare and the daemon's report cache retains.
	NoTimings bool `json:"no_timings,omitempty"`
	// SegmentBranches streams traces in segments of this many branches
	// (0 = automatic: segment only above the materialization ceiling).
	SegmentBranches uint64 `json:"segment_branches,omitempty"`
	// TraceFile points the realtrace experiment at a recorded ChampSim
	// trace on the serving machine (empty = no recorded trace). The path
	// never enters the request's cache identity — see ResolveTrace.
	TraceFile string `json:"trace_file,omitempty"`
	// TraceDigest and TraceCount are TraceFile's resolved content
	// identity, filled by ResolveTrace. Cache keys use them instead of the
	// path, so identical trace bytes share cached reports wherever the
	// file lives, and a file that changed under the same path misses
	// instead of serving stale bytes. The daemon re-resolves on decode:
	// a client-claimed digest is never trusted for the server's cache.
	TraceDigest string `json:"trace_digest,omitempty"`
	TraceCount  uint64 `json:"trace_count,omitempty"`
}

// ResolveTrace scans TraceFile and pins its content identity into the
// request (a no-op without a trace file). Both report entry points call it
// before keying: the one-shot CLI after flag parsing, the daemon after
// decoding the request body.
func (r *ReportRequest) ResolveTrace() error {
	if r.TraceFile == "" {
		r.TraceDigest, r.TraceCount = "", 0
		return nil
	}
	spec, err := workload.TraceSpec("", r.TraceFile)
	if err != nil {
		return err
	}
	r.TraceDigest, r.TraceCount = spec.TraceDigest, spec.TraceCount
	return nil
}

// Validate checks the request against the experiment registry, returning
// the experiment filter (nil = all) and the resolved segment size.
func (r ReportRequest) Validate() (filter map[string]bool, segment uint64, err error) {
	if r.TraceFile != "" && r.TraceDigest == "" {
		return nil, 0, fmt.Errorf("trace file %q is unresolved: call ResolveTrace before keying or building", r.TraceFile)
	}
	if len(r.Only) > 0 {
		valid := map[string]bool{}
		for _, id := range exp.IDs() {
			valid[id] = true
		}
		filter = map[string]bool{}
		for _, id := range r.Only {
			id = strings.TrimSpace(id)
			if !valid[id] {
				return nil, 0, fmt.Errorf("unknown experiment id %q (valid ids: %s)", id, strings.Join(exp.IDs(), ", "))
			}
			filter[id] = true
		}
	}
	return filter, ResolveSegment(r.Branches, r.SegmentBranches), nil
}

// ResolveSegment applies the streaming rule shared by the CLI and the
// daemon: an explicit segment size wins, budgets above the materialization
// ceiling stream automatically, and everything else runs monolithic (0).
func ResolveSegment(branches, segment uint64) uint64 {
	eff := branches
	if eff == 0 {
		eff = workload.DefaultBranches
	}
	switch {
	case segment > 0:
		return segment
	case eff > MaterializeCeiling:
		return AutoSegmentBranches
	}
	return 0
}

// Key returns the request's canonical identity for coalescing and
// caching: requests that must produce identical bytes share a key. The
// Only set is order- and duplicate-insensitive because experiment
// selection runs in registry order regardless of how the filter was
// spelled.
func (r ReportRequest) Key() string {
	only := append([]string(nil), r.Only...)
	for i := range only {
		only[i] = strings.TrimSpace(only[i])
	}
	sort.Strings(only)
	only = uniq(only)
	return fmt.Sprintf("b=%d|only=%s|ablations=%t|timings=%t|seg=%d|trace=%s:%d",
		r.Branches, strings.Join(only, ","), !r.SkipAblations, !r.NoTimings, r.SegmentBranches,
		r.TraceDigest, r.TraceCount)
}

func uniq(sorted []string) []string {
	out := sorted[:0]
	for _, s := range sorted {
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// SessionConfig maps the request onto the session configuration it runs
// under: its budget, the resolved segment size, and its recorded trace.
func (r ReportRequest) SessionConfig(segment uint64) exp.Config {
	return exp.Config{Branches: r.Branches, SegmentBranches: segment, TraceFile: r.TraceFile}
}
