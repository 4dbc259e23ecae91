package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/faultnet"
)

// newRemoteStoreServer boots an in-process artifactd equivalent: the remote
// object protocol over a fresh backing directory.
func newRemoteStoreServer(t *testing.T) (string, *artifact.RemoteServer) {
	t.Helper()
	backing, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := artifact.NewRemoteServer(backing)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, srv
}

// remoteTier extracts the remote-artifact row from -cache-stats output.
func remoteTier(t *testing.T, errOut string) (hits uint64, degraded bool) {
	t.Helper()
	re := regexp.MustCompile(`cache-stats remote-artifact\s+hits=(\d+) misses=\d+ evictions=\d+ resident_bytes=\d+ verify_fails=\d+ op_errors=\d+ degraded=(true|false)`)
	m := re.FindStringSubmatch(errOut)
	if m == nil {
		t.Fatalf("no remote-artifact cache-stats line in:\n%s", errOut)
	}
	h, _, _ := cacheTier(t, errOut, "remote-artifact")
	return h, m[2] == "true"
}

// TestShardAndRemoteFlagValidation: every contradictory flag combination
// around sharding and the remote tier fails up front, naming both sides.
func TestShardAndRemoteFlagValidation(t *testing.T) {
	appCases := []struct {
		name string
		args []string
		want []string
	}{
		{"remote-without-dir", []string{"-artifact-remote", "http://x"},
			[]string{"-artifact-remote requires", "-artifact-dir"}},
		{"shard-out-of-range", []string{"-shard", "2/2"},
			[]string{"-shard:", `shard must have the form "i/n"`}},
		{"shard-not-numbers", []string{"-shard", "a/b"},
			[]string{"-shard:", `shard must have the form "i/n"`}},
		{"shard-no-slash", []string{"-shard", "2"},
			[]string{"-shard:", `shard must have the form "i/n"`}},
		{"shard-starved", []string{"-shard", "2/3", "-only", "fig2,fig5", "-branches", "15000"},
			[]string{"selects no experiments"}},
	}
	for _, tc := range appCases {
		t.Run("app/"+tc.name, func(t *testing.T) {
			var out, errW strings.Builder
			err := appMain(tc.args, &out, &errW)
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if out.Len() != 0 {
				t.Error("output produced despite invalid flags")
			}
		})
	}

	fanoutCases := []struct {
		name string
		args []string
		want []string
	}{
		{"zero-shards", []string{"-shards", "0"}, []string{"-shards must be at least 1"}},
		{"too-many-shards", []string{"-shards", "3", "-only", "fig2,fig5"},
			[]string{"3 shards leave shard", "only 2 experiments selected"}},
		{"remote-without-dir", []string{"-shards", "2", "-artifact-remote", "http://x"},
			[]string{"-artifact-remote requires", "-artifact-dir"}},
	}
	for _, tc := range fanoutCases {
		t.Run("fanout/"+tc.name, func(t *testing.T) {
			var out, errW strings.Builder
			err := fanoutMain(tc.args, &out, &errW)
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}

	mergeCases := []struct {
		name string
		args []string
		want []string
	}{
		{"no-partials", nil, []string{"needs partial report files"}},
		{"from-store-without-shards", []string{"-from-store", "-artifact-dir", "d"},
			[]string{"-from-store requires -shards"}},
		{"from-store-without-dir", []string{"-from-store", "-shards", "2"},
			[]string{"-from-store requires -artifact-dir"}},
		{"request-flags-in-file-mode", []string{"-branches", "100", "p.json"},
			[]string{"-branches applies only with -from-store"}},
	}
	for _, tc := range mergeCases {
		t.Run("merge/"+tc.name, func(t *testing.T) {
			var out, errW strings.Builder
			err := mergeMain(tc.args, &out, &errW)
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestShardMergeByteIdentity is the fan-out acceptance gate, end to end
// through the CLI paths: two -shard workers plus a merge reproduce the
// single-process report byte for byte.
func TestShardMergeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment subset three times")
	}
	base := reportConfig{
		branches:  20000,
		filter:    map[string]bool{"fig2": true, "fig5": true, "table1": true},
		noTimings: true,
		parallel:  2,
	}
	run := func(cfg reportConfig) string {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		if err := writeReport(&out, &errW, cfg); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	want := run(base)

	dir := t.TempDir()
	var paths []string
	for i := 0; i < 2; i++ {
		cfg := base
		cfg.shard = fmt.Sprintf("%d/2", i)
		partial := run(cfg)
		if !strings.Contains(partial, `"shard": "`+cfg.shard+`"`) {
			t.Fatalf("shard %s emitted no partial JSON:\n%.200s", cfg.shard, partial)
		}
		p := filepath.Join(dir, fmt.Sprintf("partial%d.json", i))
		if err := os.WriteFile(p, []byte(partial), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	for name, order := range map[string][]string{
		"in-order": {paths[0], paths[1]},
		"reversed": {paths[1], paths[0]},
	} {
		var out, errW strings.Builder
		if err := mergeMain(order, &out, &errW); err != nil {
			t.Fatalf("merge %s: %v", name, err)
		}
		if out.String() != want {
			t.Errorf("merged report (%s) differs from single-process report", name)
		}
	}

	// And through -o, as the CI smoke job drives it.
	merged := filepath.Join(dir, "merged.md")
	var out, errW strings.Builder
	if err := mergeMain([]string{"-o", merged, paths[0], paths[1]}, &out, &errW); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Error("merged -o report differs from single-process report")
	}
}

// TestFanoutCoordinatorByteIdentity: the in-process coordinator — shards,
// wire round trip, merge — reproduces the single-process bytes, and a
// store-backed fan-out leaves partials a store-mode merge can consume.
func TestFanoutCoordinatorByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment subset three times")
	}
	resetEngineCaches()
	var ref, errW strings.Builder
	if err := writeReport(&ref, &errW, reportConfig{
		branches:  20000,
		filter:    map[string]bool{"fig2": true, "fig5": true, "table1": true},
		noTimings: true,
		parallel:  2,
	}); err != nil {
		t.Fatal(err)
	}

	resetEngineCaches()
	dir := t.TempDir()
	var out, fanErr strings.Builder
	args := []string{
		"-shards", "2", "-branches", "20000", "-only", "fig2,fig5,table1",
		"-no-timings", "-parallel", "2", "-artifact-dir", dir,
	}
	if err := fanoutMain(args, &out, &fanErr); err != nil {
		t.Fatal(err)
	}
	if out.String() != ref.String() {
		t.Error("fanout-merged report differs from single-process report")
	}

	// The coordinator published every shard's partial: a store-mode merge
	// needs nothing but the store.
	var merged, mergeErr strings.Builder
	margs := []string{
		"-from-store", "-shards", "2", "-branches", "20000",
		"-only", "fig2,fig5,table1", "-no-timings", "-artifact-dir", dir,
	}
	if err := mergeMain(margs, &merged, &mergeErr); err != nil {
		t.Fatal(err)
	}
	if merged.String() != ref.String() {
		t.Error("store-mode merge differs from single-process report")
	}

	// A store-mode merge for a shard count nobody ran fails loudly.
	var out2, err2 strings.Builder
	margs[2] = "3"
	if err := mergeMain(margs, &out2, &err2); err == nil || !strings.Contains(err.Error(), "no partial for shard") {
		t.Fatalf("merge with missing partials = %v", err)
	}
}

// TestRemoteWarmShareByteIdentity: worker A runs cold against an empty
// remote store; worker B, with an empty local tier, warm-starts purely from
// A's published artifacts — byte-identical report, remote hits visible in
// the ninth cache-stats row.
func TestRemoteWarmShareByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment subset twice")
	}
	base, srv := newRemoteStoreServer(t)
	cfg := reportConfig{
		branches:       20000,
		filter:         map[string]bool{"fig2": true, "fig5": true, "gating": true},
		noTimings:      true,
		parallel:       2,
		cacheStats:     true,
		artifactRemote: base,
	}
	run := func(cfg reportConfig) (string, string) {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		if err := writeReport(&out, &errW, cfg); err != nil {
			t.Fatal(err)
		}
		return out.String(), errW.String()
	}

	cold := cfg
	cold.artifactDir = t.TempDir()
	coldReport, coldErr := run(cold)
	if hits, degraded := remoteTier(t, coldErr); hits != 0 || degraded {
		t.Fatalf("cold run remote tier: hits=%d degraded=%t, want 0/false", hits, degraded)
	}
	if st := srv.Stats(); st.Puts == 0 {
		t.Fatal("cold run published nothing to the remote store")
	}

	warm := cfg
	warm.artifactDir = t.TempDir() // empty local tier: only the remote is warm
	warmReport, warmErr := run(warm)
	if warmReport != coldReport {
		t.Error("remote-warmed report differs from cold report")
	}
	hits, degraded := remoteTier(t, warmErr)
	if hits == 0 || degraded {
		t.Fatalf("warm run remote tier: hits=%d degraded=%t, want hits>0", hits, degraded)
	}
	if h, _, vf := diskTier(t, warmErr); h != 0 || vf != 0 {
		t.Errorf("warm run local disk: hits=%d verify_fails=%d, want 0 (fresh dir, remote-fed)", h, vf)
	}
}

// TestRemoteOutageDegradesToBaseline: the remote store going dark — from
// the first byte or mid-run — costs warm starts, never bytes: the breaker
// trips the tier into local-only mode and the report equals the no-remote
// baseline.
func TestRemoteOutageDegradesToBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment subset three times")
	}
	cfg := reportConfig{
		branches:   20000,
		filter:     map[string]bool{"fig2": true, "fig5": true},
		noTimings:  true,
		parallel:   2,
		cacheStats: true,
	}
	run := func(cfg reportConfig) (string, string) {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		if err := writeReport(&out, &errW, cfg); err != nil {
			t.Fatal(err)
		}
		return out.String(), errW.String()
	}

	baselineCfg := cfg
	baselineCfg.artifactDir = t.TempDir()
	baseline, _ := run(baselineCfg)

	for name, from := range map[string]uint64{"from-first-byte": 1, "mid-run": 4} {
		t.Run(name, func(t *testing.T) {
			tr := faultnet.New(&http.Client{})
			base, _ := newRemoteStoreServer(t)
			tr.Inject(faultnet.Fault{Op: faultnet.OpAny, From: from, Mode: faultnet.FailConn})
			outage := cfg
			outage.artifactDir = t.TempDir()
			outage.artifactRemote = base
			outage.remoteDoer = tr
			report, errOut := run(outage)
			if report != baseline {
				t.Error("report under remote outage differs from no-remote baseline")
			}
			if _, degraded := remoteTier(t, errOut); !degraded {
				t.Error("remote tier not degraded after the outage")
			}
			if _, _, vf := diskTier(t, errOut); vf != 0 {
				t.Errorf("local disk verify_fails=%d during remote outage, want 0", vf)
			}
		})
	}
}
