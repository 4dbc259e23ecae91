package serve

import (
	"strings"
	"testing"
)

func TestRequestKeyNormalization(t *testing.T) {
	a := ReportRequest{Branches: 1000, Only: []string{"fig5", "fig2"}, NoTimings: true}
	b := ReportRequest{Branches: 1000, Only: []string{"fig2", "fig5", "fig2"}, NoTimings: true}
	if a.Key() != b.Key() {
		t.Fatalf("order/duplicate-insensitive keys differ:\n%s\n%s", a.Key(), b.Key())
	}
	distinct := []ReportRequest{
		{Branches: 2000, Only: []string{"fig5", "fig2"}, NoTimings: true},
		{Branches: 1000, Only: []string{"fig2"}, NoTimings: true},
		{Branches: 1000, Only: []string{"fig5", "fig2"}},
		{Branches: 1000, Only: []string{"fig5", "fig2"}, NoTimings: true, SkipAblations: true},
		{Branches: 1000, Only: []string{"fig5", "fig2"}, NoTimings: true, SegmentBranches: 4096},
	}
	for i, r := range distinct {
		if r.Key() == a.Key() {
			t.Errorf("distinct request %d collides: %s", i, r.Key())
		}
	}
	// Streaming is resolved from the budget and segment size alone; no
	// other engine switch enters the identity.
	if strings.Contains(a.Key(), "nostream") {
		t.Errorf("key carries a removed engine switch: %s", a.Key())
	}
}

// TestRequestTraceIdentity: a trace-bearing request keys on the file's
// resolved content digest, never on the path, and an unresolved trace is
// rejected before it can be keyed or built.
func TestRequestTraceIdentity(t *testing.T) {
	unresolved := ReportRequest{TraceFile: "/tmp/some.champsim"}
	if _, _, err := unresolved.Validate(); err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Fatalf("unresolved trace accepted: %v", err)
	}
	a := ReportRequest{TraceFile: "/a/t.champsim", TraceDigest: "d1", TraceCount: 42}
	b := ReportRequest{TraceFile: "/elsewhere/copy.champsim", TraceDigest: "d1", TraceCount: 42}
	if a.Key() != b.Key() {
		t.Fatalf("same trace content at different paths keys differently:\n%s\n%s", a.Key(), b.Key())
	}
	if strings.Contains(a.Key(), "t.champsim") {
		t.Fatalf("trace path leaked into the request key: %s", a.Key())
	}
	c := ReportRequest{TraceFile: "/a/t.champsim", TraceDigest: "d2", TraceCount: 42}
	if c.Key() == a.Key() {
		t.Fatal("changed trace content collides with the old key")
	}
	if (ReportRequest{}).Key() == a.Key() {
		t.Fatal("trace-bearing request collides with the trace-free key")
	}
}

func TestRequestValidateUnknownID(t *testing.T) {
	_, _, err := ReportRequest{Only: []string{"fig2", "nope"}}.Validate()
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "valid ids:") {
		t.Fatalf("error does not name the offender and the valid ids: %v", err)
	}
}

func TestResolveSegment(t *testing.T) {
	cases := []struct {
		name              string
		branches, segment uint64
		want              uint64
	}{
		{name: "default-budget-monolithic", branches: 0, want: 0},
		{name: "explicit-segment", branches: 0, segment: 4096, want: 4096},
		{name: "auto-above-ceiling", branches: MaterializeCeiling + 1, want: AutoSegmentBranches},
		{name: "no-stream-small", branches: 10000, want: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ResolveSegment(tc.branches, tc.segment); got != tc.want {
				t.Fatalf("segment = %d, want %d", got, tc.want)
			}
		})
	}
}
