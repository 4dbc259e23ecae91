// Command perfbench is the repository's benchmark. It drives the built
// paperrepro binary from outside on three workloads — the full report cold
// and warm (report), the 10^8-branch streaming run (long-stream), and a
// seeded closed-loop request mix against the resident daemon (serve-mix) —
// checks every output's bytes against recorded digests, and prints the
// end-to-end metrics. With -trace 1 it instead makes a traced run: spans
// and counters around the benchmark's own calls into each layer's public
// functions, printed as per-layer metrics. README.md in this directory
// maps each layer metric to the end-to-end metric it should move.
//
// Run it through run.sh, which builds both binaries from source:
//
//	bash perfbench/run.sh --workload report --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full result, with the
// environment stamp and the workload-specific metrics, is also written
// under the work directory's results/ folder. -summarize prints the median
// and quartile spread of every metric over saved result files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure. N is the number of samples behind Value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// result is one run's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Env       envStamp `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Mismatches counts operations whose output bytes differed from the
	// recorded digest; they are also counted in Failed.
	Mismatches int `json:"mismatches"`
	// Metrics is the contract set BENCHMARK.json names: the end-to-end
	// metrics of an untraced run, or the per-layer metrics of a traced run.
	Metrics []metric `json:"metrics"`
	// Extra holds this workload's own end-to-end figures (rps, latency
	// percentiles, branches_per_s, failed_share), and a traced run's span
	// self times; they are printed and saved but not part of the contract.
	Extra   []metric `json:"extra,omitempty"`
	Caveats []string `json:"caveats,omitempty"`
	Errors  []string `json:"errors,omitempty"`
}

func (r *result) add(name string, value float64, unit string, n int, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, N: n, Note: note})
}

func (r *result) extra(name string, value float64, unit string, n int, note string) {
	r.Extra = append(r.Extra, metric{Name: name, Value: value, Unit: unit, N: n, Note: note})
}

// fail records one failed operation and why.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// mismatch records one operation whose bytes differ from the reference.
func (r *result) mismatch(what, got, want string) {
	r.Mismatches++
	r.fail("%s: output digest %s, reference %s", what, got, want)
}

// runConfig is what every workload receives.
type runConfig struct {
	bin      string // built paperrepro binary
	work     string // this run's private scratch directory
	seed     int64
	seconds  int
	trace    bool
	digests  digests
	progress io.Writer
}

// workloads maps each workload name to its untraced run. The traced run
// (traced.go) is shared and branches on the name where layers differ.
var workloads = map[string]func(*runConfig, *result) error{
	"report":      runReport,
	"long-stream": runLongStream,
	"serve-mix":   runServeMix,
}

func main() {
	if err := benchMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the result line when an operation failed
// or an output did not match its reference, so the command exits non-zero.
var errIncorrect = errors.New("one or more operations failed or produced wrong bytes")

func benchMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root        = fs.String("root", ".", "checkout root holding the program's sources and BENCHMARK.json")
		bin         = fs.String("bin", "", "paperrepro binary built from the checkout")
		work        = fs.String("work", ".bench_build/perfbench", "scratch and results directory inside the checkout")
		workload    = fs.String("workload", "", "workload to run: report, long-stream or serve-mix")
		seed        = fs.Int64("seed", 1, "seed for the workload's generated inputs")
		seconds     = fs.Int("seconds", 10, "length of serve-mix's measured load phase in seconds")
		traceFlag   = fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = untraced end-to-end run")
		digestsPath = fs.String("digests", "", "reference output digests (default: perfbench/digests.json under -root)")
		summarize   = fs.Bool("summarize", false, "print median and quartile spread per metric over the result files named as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *summarize {
		return summarizeResults(fs.Args(), stdout)
	}
	run, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want report, long-stream or serve-mix)", *workload)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *bin == "" {
		return fmt.Errorf("-bin is required (run the benchmark through perfbench/run.sh)")
	}
	contract, err := loadContract(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *digestsPath == "" {
		*digestsPath = filepath.Join(*root, "perfbench", "digests.json")
	}
	refs, err := loadDigests(*digestsPath)
	if err != nil {
		return err
	}
	workDir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	cfg := &runConfig{
		bin: *bin, work: workDir, seed: *seed, seconds: *seconds,
		trace: *traceFlag == 1, digests: refs, progress: stderr,
	}
	res := &result{Workload: *workload, Seed: *seed, Trace: cfg.trace, Env: stampEnv(*root)}
	if cfg.trace {
		err = runTraced(cfg, res)
	} else {
		err = run(cfg, res)
	}
	if err != nil {
		return err
	}
	want := contract.EndToEnd
	if cfg.trace {
		want = contract.PerLayer
	}
	if err := checkMetrics(res.Metrics, want); err != nil {
		return err
	}
	if err := saveResult(filepath.Join(*work, "results"), res); err != nil {
		return err
	}
	printResult(stdout, res)
	if res.Failed > 0 {
		return errIncorrect
	}
	return nil
}

// contractMetric is one metric entry of BENCHMARK.json.
type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func loadContract(path string) (contract, error) {
	var c contract
	b, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("reading the metric contract: %w", err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("decoding %s: %w", path, err)
	}
	return c, nil
}

// checkMetrics fails unless got holds exactly the contract's metrics, each
// once, with the contract's unit, a valid name and a finite value.
func checkMetrics(got []metric, want []contractMetric) error {
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	seen := map[string]bool{}
	for _, m := range got {
		if err := validMetricName(m.Name); err != nil {
			return err
		}
		unit, ok := units[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is not in BENCHMARK.json", m.Name)
		case seen[m.Name]:
			return fmt.Errorf("metric %s reported twice", m.Name)
		case unit != m.Unit:
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s has no finite value", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range want {
		if !seen[m.Name] {
			return fmt.Errorf("metric %s named in BENCHMARK.json was not measured", m.Name)
		}
	}
	return nil
}

// printResult writes the human-readable lines, then the contract's result
// object as the last line.
func printResult(w io.Writer, r *result) {
	e := r.Env
	fmt.Fprintf(w, "env nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Commit)
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed=%d %s attempted=%d failed=%d mismatches=%d\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Mismatches)
	for _, set := range [][]metric{r.Metrics, r.Extra} {
		for _, m := range set {
			line := fmt.Sprintf("metric %-44s %16.6g %-8s n=%d", m.Name, m.Value, m.Unit, m.N)
			if m.Note != "" {
				line += "  # " + m.Note
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, c := range r.Caveats {
		fmt.Fprintln(w, "caveat:", c)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "error:", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // plain structs of finite numbers always encode
	fmt.Fprintln(w, string(b))
}

func saveResult(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if r.Trace {
		mode = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, mode, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// summarizeResults prints, per (workload, mode, metric), the median and
// the quartile spread as a share of the median over the given result
// files — the comparison two sets of runs are judged by.
func summarizeResults(paths []string, w io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("-summarize needs result files as arguments")
	}
	type key struct{ workload, name, unit string }
	values := map[key][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("decoding %s: %w", p, err)
		}
		wl := r.Workload
		if r.Trace {
			wl += "/traced"
		}
		for _, set := range [][]metric{r.Metrics, r.Extra} {
			for _, m := range set {
				k := key{wl, m.Name, m.Unit}
				values[k] = append(values[k], m.Value)
			}
		}
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].name < keys[j].name
	})
	fmt.Fprintf(w, "%-20s %-44s %6s %14s %10s\n", "workload", "metric", "runs", "median", "iqr/median")
	for _, k := range keys {
		xs := values[k]
		spread := "-"
		if len(xs) >= 2 {
			spread = fmt.Sprintf("%.4f", iqrShare(xs))
		}
		fmt.Fprintf(w, "%-20s %-44s %6d %14.6g %10s %s\n", k.workload, k.name, len(xs), median(xs), spread, strings.TrimSpace(k.unit))
	}
	return nil
}
