package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"branchconf/internal/serve"
)

// shape is one serve-mix request shape: the experiments a request selects.
type shape []string

func (s shape) key() string { return strings.Join(s, ",") }

// shapePool is the fixed set serve-mix draws request shapes from: paper
// figure and table subsets, the application studies, and the cycle-level
// models, each a distinct slice of the resident tiers.
var shapePool = []shape{
	{"fig2", "fig5"},
	{"fig6", "fig7"},
	{"fig8", "table1"},
	{"fig9", "fig10", "fig11"},
	{"apps"},
	{"pipeline", "dualpath-ipc"},
}

// serveBudget is the per-benchmark branch budget of every serve-mix
// request: small enough that a resident daemon answers in tens of
// milliseconds, large enough that every experiment does real work.
const serveBudget = 200_000

// bootRepeats is how many times serve-mix boots and prewarms a daemon
// during set-up; the times reported are medians, and the last daemon
// serves the load phase.
const bootRepeats = 3

// request builds the report request for a shape. It asks for timing lines,
// which the daemon never serves from its rendered-report cache, so every
// request re-runs its experiments against the resident tiers.
func (s shape) request() serve.ReportRequest {
	return serve.ReportRequest{Branches: serveBudget, Only: append([]string(nil), s...)}
}

// daemon is a running "paperrepro serve" child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *serve.Client

	mu      sync.Mutex
	stderr  bytes.Buffer
	readEOF chan struct{} // closed once the daemon's stderr reaches EOF
	stopped bool
}

// startDaemon boots the daemon on a free loopback port, reads the port it
// prints on stderr, and waits for /readyz. It returns the time from start
// to ready.
func startDaemon(bin string, clients int, extra ...string) (*daemon, time.Duration, error) {
	args := append([]string{"serve", "-listen", "127.0.0.1:0"}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), readEOF: make(chan struct{})}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.readEOF)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.readEOF:
		d.kill()
		return nil, 0, fmt.Errorf("daemon exited before listening: %s", lastLines(d.diagnostics(), 5))
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("daemon printed no listen address within 60s")
	}
	d.client = &serve.Client{Base: d.base, HTTP: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1},
		Timeout:   120 * time.Second,
	}}
	deadline := time.Now().Add(60 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := d.client.Ready(ctx)
		cancel()
		if err == nil {
			return d, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("daemon not ready within 60s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) diagnostics() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// stop drains the daemon with SIGTERM, as an operator would, waits for it
// to exit, and returns its CPU time and peak RSS. A daemon that has not
// exited within a minute is killed.
func (d *daemon) stop() (cpu time.Duration, maxRSSMB float64, err error) {
	if d.stopped {
		return 0, 0, fmt.Errorf("daemon already stopped")
	}
	d.stopped = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, fmt.Errorf("signalling daemon: %w", err)
	}
	select {
	case <-d.readEOF:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.readEOF
	}
	werr := d.cmd.Wait()
	cpu, maxRSSMB = usage(d.cmd.ProcessState)
	if werr != nil {
		return cpu, maxRSSMB, fmt.Errorf("daemon exit: %w: %s", werr, lastLines(d.diagnostics(), 5))
	}
	return cpu, maxRSSMB, nil
}

// kill stops a daemon that is no longer needed on an error path.
func (d *daemon) kill() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Kill()
	<-d.readEOF
	d.cmd.Wait()
}

// pid returns the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// outcome is one request's result.
type outcome struct {
	shape     string
	latency   time.Duration
	err       error  // transport error or non-200 status (429 and 5xx included)
	got, want string // digest of the response with its timing lines stripped, and the reference
}

// send issues one shape's request and digests the response bytes, with
// their timing lines stripped, for comparison with the one-shot digest for
// the shape.
func send(d *daemon, s shape, refs digests) outcome {
	start := time.Now()
	body, _, err := d.client.Report(context.Background(), s.request())
	o := outcome{shape: s.key(), latency: time.Since(start), err: err, want: refs.Shapes[s.key()]}
	if err == nil {
		o.got = sha256Hex(stripTimings(body))
	}
	return o
}

// record counts one request against the result.
func record(res *result, o outcome, what string) {
	res.Attempted++
	switch {
	case o.err != nil:
		res.fail("%s %s: %v", what, o.shape, o.err)
	case o.got != o.want:
		res.mismatch("shape "+o.shape, o.got, o.want)
	}
}

// prewarm sends one request per shape, in pool order, one at a time, and
// returns the pass's wall time.
func prewarm(d *daemon, res *result, refs digests) time.Duration {
	start := time.Now()
	for _, s := range shapePool {
		record(res, send(d, s, refs), "prewarm")
	}
	return time.Since(start)
}

// loadResult is the measured phase of the closed loop.
type loadResult struct {
	wall      time.Duration
	completed int       // requests answered 200
	latencyMS []float64 // of completed requests
	passS     []float64 // wall seconds of each client's complete passes
}

// loadPhase runs the seeded closed loop: clients goroutines each send a
// request, wait for the answer, and send the next until the phase ends.
// Each client walks the shape pool in passes, one request per shape in an
// order drawn from its own generator seeded by (seed, client), so a seed
// fixes every request sequence while every run serves the same mix.
func loadPhase(d *daemon, res *result, refs digests, seed int64, clients int, dur time.Duration) loadResult {
	type clientLog struct {
		outs   []outcome
		passes []float64
	}
	logs := make([]clientLog, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
			log := &logs[i]
			for time.Now().Before(deadline) {
				passStart := time.Now()
				order := rng.Perm(len(shapePool))
				for j, k := range order {
					log.outs = append(log.outs, send(d, shapePool[k], refs))
					if j == len(order)-1 {
						log.passes = append(log.passes, time.Since(passStart).Seconds())
					} else if !time.Now().Before(deadline) {
						break
					}
				}
			}
		}(i)
	}
	wg.Wait()
	lr := loadResult{wall: time.Since(start)}
	for _, log := range logs {
		lr.passS = append(lr.passS, log.passes...)
		for _, o := range log.outs {
			record(res, o, "load request")
			if o.err == nil {
				lr.completed++
				lr.latencyMS = append(lr.latencyMS, float64(o.latency)/float64(time.Millisecond))
			}
		}
	}
	return lr
}

// setup is serve-mix's set-up: bootRepeats daemons, each booted and
// prewarmed, all but the last stopped again.
type setup struct {
	d                  *daemon // the last daemon, still running
	boot, prewarm, cpu []float64
}

func bootAndPrewarm(cfg *runConfig, res *result, clients int) (*setup, error) {
	st := &setup{}
	for {
		d, boot, err := startDaemon(cfg.bin, clients)
		if err != nil {
			return nil, err
		}
		cpu0, err := procCPU(d.pid())
		if err != nil {
			d.kill()
			return nil, err
		}
		warmup := prewarm(d, res, cfg.digests)
		cpu1, err := procCPU(d.pid())
		if err != nil {
			d.kill()
			return nil, err
		}
		st.boot = append(st.boot, boot.Seconds())
		st.prewarm = append(st.prewarm, warmup.Seconds())
		st.cpu = append(st.cpu, (cpu1 - cpu0).Seconds())
		if len(st.boot) == bootRepeats {
			st.d = d
			return st, nil
		}
		if _, _, err := d.stop(); err != nil {
			return nil, err
		}
	}
}

// runServeMix boots and prewarms the resident daemon, then drives it with
// nproc closed-loop clients for the run's seconds.
func runServeMix(cfg *runConfig, res *result) error {
	clients := runtime.NumCPU()
	st, err := bootAndPrewarm(cfg, res, clients)
	if err != nil {
		return err
	}
	d := st.d
	defer d.kill()
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	lr := loadPhase(d, res, cfg.digests, cfg.seed, clients, time.Duration(cfg.seconds)*time.Second)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	_, rss, err := d.stop()
	if err != nil {
		return err
	}
	// A warm pass is one client's pass over the shapes under the load; its
	// CPU is the daemon's load-phase CPU per len(shapePool) requests.
	perPass := float64(len(shapePool)) / float64(lr.completed)
	setups := make([]float64, len(st.boot))
	for i := range setups {
		setups[i] = st.boot[i] + st.prewarm[i]
	}
	res.add("setup_s", median(setups), "s", bootRepeats, "median of daemon boot to /readyz plus the prewarm pass")
	res.add("cold_s", median(st.prewarm), "s", bootRepeats, "median prewarm pass: one request per shape on a fresh daemon")
	res.add("warm_s", median(lr.passS), "s", len(lr.passS), fmt.Sprintf("median time for one client to complete a pass over the shapes, %d clients", clients))
	res.add("cpu_s", median(st.cpu)+(cpu1-cpu0).Seconds()*perPass, "s", lr.completed, "daemon user+sys: median prewarm pass plus one load-phase pass")
	res.add("peak_rss_mb", rss, "MB", 1, "the serving daemon")
	res.extra("boot_s", median(st.boot), "s", bootRepeats, "median daemon boot to /readyz")
	res.extra("rps", float64(lr.completed)/lr.wall.Seconds(), "1/s", lr.completed, fmt.Sprintf("closed loop, %d clients", clients))
	res.extra("p50_ms", median(lr.latencyMS), "ms", len(lr.latencyMS), "client-side latency")
	if v, pct, ok := tailPercentile(lr.latencyMS, 99); ok {
		res.extra("p99_ms", v, "ms", len(lr.latencyMS), fmt.Sprintf("p%.1f: highest percentile with ten samples beyond it", pct))
	}
	res.extra("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted, "")
	return nil
}
