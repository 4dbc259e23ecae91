package serve

import (
	"bytes"
	"runtime"
	"testing"

	"branchconf/internal/analysis"
	"branchconf/internal/exp"
)

// residentShapes are the daemon benchmark's request shapes: paper figure
// and table subsets, the application studies, and the cycle-level models.
var residentShapes = [][]string{
	{"fig2", "fig5"},
	{"fig6", "fig7"},
	{"fig8", "table1"},
	{"fig9", "fig10", "fig11"},
	{"apps"},
	{"pipeline", "dualpath-ipc"},
}

// buildShapes renders every resident shape once against session.
func buildShapes(tb testing.TB, session *exp.Session, branches uint64) [][]byte {
	tb.Helper()
	out := make([][]byte, len(residentShapes))
	for i, only := range residentShapes {
		req := ReportRequest{Branches: branches, Only: only, NoTimings: true}
		b, err := BuildReport(session, req, BuildOptions{Parallel: runtime.NumCPU()})
		if err != nil {
			tb.Fatalf("shape %v: %v", only, err)
		}
		out[i] = b
	}
	return out
}

// TestResidentShapesHashOnce pins the resident request path: once a
// session's suite passes are resident, re-running every shape keys its
// curves from the passes' stored tally digests and hashes no tally again,
// and the bytes do not change.
func TestResidentShapesHashOnce(t *testing.T) {
	session := exp.NewSession(exp.Config{Branches: 20_000})
	before := analysis.RunDigestCount()
	first := buildShapes(t, session, 20_000)
	cold := analysis.RunDigestCount() - before
	if cold == 0 {
		t.Fatal("first round computed no run digests; the hook is not counting")
	}
	before = analysis.RunDigestCount()
	second := buildShapes(t, session, 20_000)
	if n := analysis.RunDigestCount() - before; n != 0 {
		t.Fatalf("resident round computed %d run digests, want 0 (cold round: %d)", n, cold)
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Errorf("shape %v: resident bytes differ from the first round", residentShapes[i])
		}
	}
}

// BenchmarkResidentShapes times one resident pass over the six shapes at
// the daemon benchmark's 200k-branch budget: the in-process form of the
// daemon's warm request path, with every tier already populated.
func BenchmarkResidentShapes(b *testing.B) {
	session := exp.NewSession(exp.Config{Branches: 200_000})
	buildShapes(b, session, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildShapes(b, session, 200_000)
	}
}
