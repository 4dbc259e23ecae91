package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp records what a result was measured on, so results from
// different hosts or trees are never compared unknowingly.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the git commit when the checkout is a repository, and
	// otherwise "tree:" plus a SHA-256 over the checkout's source files,
	// which names the same tree on every copy of it.
	Commit string `json:"commit"`
}

func stampEnv(root string) envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commitOf(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
		if err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	digest, err := treeDigest(root)
	if err != nil {
		return "unknown"
	}
	return "tree:" + digest
}

// treeDigest hashes the path and bytes of every Go source and module file
// under root, skipping hidden directories and build output.
func treeDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// digests are the recorded SHA-256 digests of every output the benchmark
// checks: the full default report, the long-stream report, and the
// one-shot report of each serve-mix shape (at the serve-mix budget,
// rendered with -no-timings).
type digests struct {
	Report     string            `json:"report"`
	LongStream string            `json:"long-stream"`
	Shapes     map[string]string `json:"serve-mix"`
}

func loadDigests(path string) (digests, error) {
	var d digests
	b, err := os.ReadFile(path)
	if err != nil {
		return d, fmt.Errorf("reading reference digests: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return d, fmt.Errorf("decoding %s: %w", path, err)
	}
	for _, s := range shapePool {
		if d.Shapes[s.key()] == "" {
			return d, fmt.Errorf("%s has no digest for serve-mix shape %s", path, s.key())
		}
	}
	if d.Report == "" || d.LongStream == "" {
		return d, fmt.Errorf("%s lacks the report or long-stream digest", path)
	}
	return d, nil
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
