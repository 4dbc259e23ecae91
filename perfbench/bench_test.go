package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildProgram compiles paperrepro from the checkout this benchmark sits in.
func buildProgram(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "paperrepro")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/paperrepro")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building paperrepro: %v\n%s", err, out)
	}
	return bin
}

// lastJSONLine decodes the result object the benchmark prints last.
func lastJSONLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// TestCorruptedDigestFailsTheRun runs serve-mix, the quickest workload,
// against a reference file with one shape's digest corrupted: every
// request for that shape must count as failed, the result must say
// correct=false, and the command must exit with an error. The untouched
// reference file must pass the same run.
func TestCorruptedDigestFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon and renders reports")
	}
	bin := buildProgram(t)
	refs, err := os.ReadFile("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var d digests
	if err := json.Unmarshal(refs, &d); err != nil {
		t.Fatal(err)
	}
	good := d.Shapes["fig2,fig5"]
	flipped := "0"
	if good[:1] == "0" {
		flipped = "1"
	}
	d.Shapes["fig2,fig5"] = flipped + good[1:]
	corrupt, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(t.TempDir(), "digests.json")
	if err := os.WriteFile(badPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(digestsPath string) (string, error) {
		var out, errb bytes.Buffer
		err := benchMain([]string{
			"-root", "..", "-bin", bin, "-work", t.TempDir(), "-digests", digestsPath,
			"-workload", "serve-mix", "-seed", "3", "-seconds", "1", "-trace", "0",
		}, &out, &errb)
		if err != nil && !errors.Is(err, errIncorrect) {
			t.Fatalf("benchmark failed before checking outputs: %v\n%s", err, errb.String())
		}
		return out.String(), err
	}

	out, err := run(badPath)
	if !errors.Is(err, errIncorrect) {
		t.Fatalf("corrupted digest: err = %v, want errIncorrect\n%s", err, out)
	}
	res := lastJSONLine(t, out)
	if res["correct"] != false || res["failed"].(float64) < 1 {
		t.Errorf("corrupted digest: result %v, want correct=false and failures", res)
	}
	if !strings.Contains(out, "shape fig2,fig5: output digest "+good) {
		t.Errorf("the mismatch does not name the shape and its real digest:\n%s", out)
	}

	out, err = run("digests.json")
	if err != nil {
		t.Fatalf("reference digests: %v\n%s", err, out)
	}
	if res := lastJSONLine(t, out); res["correct"] != true || res["failed"].(float64) != 0 {
		t.Errorf("reference digests: result %v, want correct=true and no failures", res)
	}
}

func TestDigestFileMustCoverEveryShape(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"missing-shape": `{"report": "a", "long-stream": "b", "serve-mix": {"fig2,fig5": "c"}}`,
		"unknown-key":   `{"report": "a", "long-stream": "b", "serve-mix": {}, "extra": 1}`,
		"not-json":      `report=a`,
	} {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadDigests(p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := loadDigests("digests.json"); err != nil {
		t.Errorf("the checked-in digests: %v", err)
	}
}
