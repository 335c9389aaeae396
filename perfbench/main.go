// Command perfbench is memnet's benchmark: it runs one workload of the
// simulator from a single process, times it end to end and layer by
// layer, checks the simulated outputs, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with all
// tracing off; with --trace 1 the same timed phase is followed by a
// traced rerun that yields the per-layer metrics. --repeat N runs the
// workload N times with consecutive seeds and prints each metric's
// median, quartiles and spread. See README.md and ../BENCHMARK.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"memnet/internal/config"
)

// Timed-phase rules: a phase runs whole passes until it has lasted the
// requested seconds and gathered minRuns run samples, so run_p90_ms
// always has tailMin samples beyond it.
const (
	minRuns = 100
	// Set-up repeats at least setupReps times and for at least
	// setupSeconds; setup_s is the median repetition.
	setupReps    = 5
	setupSeconds = 0.5
	// auxSeconds is the least time the unobserved and counted passes of
	// the traced run each take (short passes repeat).
	auxSeconds = 1.0
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	repeat   int
	outDir   string
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "figures, machine-skiplist or faults-observed")
	fs.Uint64Var(&o.seed, "seed", recordedSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "least host seconds the timed phase runs")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced rerun, per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and summarize")
	fs.StringVar(&o.outDir, "out-dir", filepath.Join(".bench_build", "perfbench"), "directory for trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.workload == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--repeat n]")
		return 2
	}
	if o.repeat > 0 {
		return repeatMode(o, stdout, stderr)
	}
	res, err := benchmark(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// provenance stamps a result with what it was measured on.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"workers"`
	Commit     string `json:"commit"`
	RunsPass   int    `json:"runs_per_pass"`
	TxnsRun    uint64 `json:"txns_per_run"`
}

func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// phase is a run of passes of one mode.
type phase struct {
	passes []passOut
	// wall, mallocs and bytes sum over the passes only, not over what
	// runs between them.
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	gcCPU    float64
	usedCPU  float64
	gcCycles uint64
	// peakRSS is each pass's peak resident set in MB.
	peakRSS []float64
}

func (ph *phase) runs() []runRec {
	var out []runRec
	for i := range ph.passes {
		out = append(out, ph.passes[i].runs...)
	}
	return out
}

func (ph *phase) meanPassWall() time.Duration {
	return ph.wall / time.Duration(max(1, len(ph.passes)))
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// phaseSpec says how a phase runs.
type phaseSpec struct {
	mode passMode
	// passes > 0 runs exactly that many passes; otherwise passes run
	// until they have lasted seconds and done leastRuns runs.
	passes    int
	seconds   float64
	leastRuns int
	tr        *tracer
	root      int64
	counts    *layerCounts
	// between, when set, runs after every pass, outside the measurement.
	between func() error
}

// runPhase runs passes of wl as spec says. A pass with a failure ends
// the phase.
func runPhase(wl benchWorkload, spec phaseSpec) (phase, error) {
	var ph phase
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	rt0 := readRuntime()
	runs := 0
	for {
		// Without the reset each reading is the process's peak so far,
		// still a peak but a less steady one.
		_ = resetPeakRSS()
		runtime.ReadMemStats(&ms0)
		p := wl.pass(spec.mode, spec.tr, spec.root, spec.counts)
		runtime.ReadMemStats(&ms1)
		ph.mallocs += ms1.Mallocs - ms0.Mallocs
		ph.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		if rss, err := peakRSSMB(); err == nil {
			ph.peakRSS = append(ph.peakRSS, rss)
		}
		ph.wall += p.wall
		ph.passes = append(ph.passes, p)
		runs += len(p.runs)
		if p.failed > 0 {
			break
		}
		if spec.passes > 0 {
			if len(ph.passes) >= spec.passes {
				break
			}
		} else if ph.wall.Seconds() >= spec.seconds && runs >= spec.leastRuns {
			break
		}
		if spec.between != nil {
			if err := spec.between(); err != nil {
				return ph, err
			}
		}
	}
	rt1 := readRuntime()
	d := func(i int) float64 { return sampleFloat(rt1[i]) - sampleFloat(rt0[i]) }
	ph.gcCPU, ph.usedCPU, ph.gcCycles = d(0), d(1)-d(2), uint64(d(3))
	return ph, nil
}

// runAux runs whole passes of mode for at least auxSeconds.
func runAux(wl benchWorkload, mode passMode, c *layerCounts) (phase, error) {
	return runPhase(wl, phaseSpec{mode: mode, seconds: auxSeconds, leastRuns: 1, counts: c})
}

// setupTimer collects set-up repetitions, each from a collected heap.
type setupTimer struct {
	reps  []float64
	total float64
}

func (s *setupTimer) rep(wl benchWorkload) error {
	runtime.GC()
	start := time.Now()
	if err := wl.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	d := time.Since(start).Seconds()
	s.reps = append(s.reps, d)
	s.total += d
	return nil
}

// median tops the repetitions up to setupReps and setupSeconds and
// returns their median in seconds.
func (s *setupTimer) median(wl benchWorkload) (float64, error) {
	for len(s.reps) < setupReps || s.total < setupSeconds {
		if err := s.rep(wl); err != nil {
			return 0, err
		}
	}
	return median(s.reps), nil
}

// resetPeakRSS restarts the kernel's count of this process's peak
// resident set (VmHWM).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// tally counts attempted and failed checks and keeps their errors.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) addPass(p *passOut) {
	t.attempted += p.attempted
	t.failed += p.failed
	t.errs = append(t.errs, p.errs...)
}

func (t *tally) addPhase(ph *phase) {
	for i := range ph.passes {
		t.addPass(&ph.passes[i])
	}
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// checkDigests requires every pass of ph to reproduce the Results
// digest want.
func checkDigests(t *tally, ph *phase, what string, want uint64) {
	for i := range ph.passes {
		if ph.passes[i].failed > 0 {
			continue
		}
		got := ph.passes[i].digest()
		t.check(got == want, "%s pass %d: Results digest %016x, want %016x", what, i, got, want)
	}
}

func benchmark(o options, stdout io.Writer) (*result, error) {
	workers := runtime.NumCPU()
	wl, err := newWorkload(o.workload, o.seed, workers)
	if err != nil {
		return nil, err
	}
	prov := provenance{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workers: wl.workers(), Commit: commit(), RunsPass: wl.runsPerPass(), TxnsRun: wl.txnsPerRun(),
	}
	pj, _ := json.Marshal(prov) // plain fields: cannot fail
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	sys := config.Default()
	fmt.Fprintf(stdout, "load: closed loop, %d worker(s), %d run(s) a pass x %d transactions a run, host window %d\n",
		wl.workers(), wl.runsPerPass(), wl.txnsPerRun(), sys.MaxOutstanding)

	var t tally
	// An untimed warm-up pass fills caches and grows the heap; its
	// Results are the reference every later pass must reproduce, and
	// the workload's own checks run against it.
	warm := wl.pass(modeTimed, nil, 0, nil)
	t.addPass(&warm)
	digest := warm.digest()
	// Set-up is timed once between every two timed passes, so its
	// repetitions spread over the run, and topped up after it.
	var setup setupTimer
	spec := phaseSpec{mode: modeTimed, seconds: float64(o.seconds), leastRuns: minRuns}
	if o.trace == 0 {
		spec.between = func() error { return setup.rep(wl) }
	}
	ph, err := runPhase(wl, spec)
	if err != nil {
		return nil, err
	}
	t.addPhase(&ph)
	checkDigests(&t, &ph, "timed", digest)
	if o.seed == recordedSeed {
		want := recordedDigests[o.workload]
		t.check(warm.failed == 0 && digest == want,
			"Results digest %016x at the recorded seed, recorded %016x", digest, want)
	}
	if warm.failed == 0 {
		n, errs := wl.check(&warm)
		t.attempted += n
		t.failed += len(errs)
		t.errs = append(t.errs, errs...)
	}

	runs := ph.runs()
	var txns, events uint64
	var runMs []float64
	var runMsSum float64
	for _, r := range runs {
		txns += r.txns
		events += r.events
		runMs = append(runMs, r.ms)
		runMsSum += r.ms
	}
	fmt.Fprintf(stdout, "counts (exact): passes=%d runs=%d transactions=%d events=%d digest=%016x\n",
		len(ph.passes), len(runs), txns, events, digest)
	passWalls := make([]string, len(ph.passes))
	for i := range ph.passes {
		passWalls[i] = fmt.Sprintf("%.3f", ph.passes[i].wall.Seconds())
	}
	fmt.Fprintf(stdout, "wall (host, non-deterministic): timed=%.3fs passes=[%s]s\n",
		ph.wall.Seconds(), strings.Join(passWalls, " "))

	var values map[string]float64
	var defs []metricDef
	if o.trace == 0 {
		setupS, err := setup.median(wl)
		if err != nil {
			return nil, err
		}
		values = endToEndMetrics(endToEndInput{
			txns: txns, wall: ph.wall, runMs: runMs, setupS: setupS,
			mallocs: ph.mallocs, bytes: ph.bytes, rssMB: median(ph.peakRSS),
		})
		defs = endToEndDefs
	} else {
		in, err := tracedRun(o, wl, &ph, &t, digest, stdout)
		if err != nil {
			return nil, err
		}
		in.txns, in.events, in.runMsSum = txns, events, runMsSum
		in.wall, in.workers = ph.wall, wl.workers()
		in.gcCPU, in.usedCPU, in.gcCycles = ph.gcCPU, ph.usedCPU, ph.gcCycles
		in.shardImbalance = shardImbalance(&ph)
		values = perLayerMetrics(in)
		defs = perLayerDefs
	}

	fmt.Fprintf(stdout, "checks: attempted=%d failed=%d failed_frac=%g\n", t.attempted, t.failed, ratio(float64(t.failed), float64(t.attempted)))
	for _, e := range t.errs {
		fmt.Fprintf(stdout, "  FAIL %s\n", e)
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stdout, "metric %-30s not reported\n", d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	return res, nil
}

// shardImbalance is max over mean events per sim.Parallel shard of the
// machine runs; single-engine workloads have one shard per run, so 1.
func shardImbalance(ph *phase) float64 {
	worst := 1.0
	for i := range ph.passes {
		ev := ph.passes[i].shardEvents
		if len(ev) == 0 {
			continue
		}
		var sum, top uint64
		for _, e := range ev {
			sum += e
			top = max(top, e)
		}
		worst = max(worst, ratio(float64(top)*float64(len(ev)), float64(sum)))
	}
	return worst
}

// tracedRun reruns the timed phase's passes with host spans and a
// CPU profile, then the unobserved and counted passes and the layer
// drivers, and returns the per-layer inputs they measured.
func tracedRun(o options, wl benchWorkload, untraced *phase, t *tally, digest uint64, stdout io.Writer) (perLayerInput, error) {
	var in perLayerInput
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return in, fmt.Errorf("cpu profile: %w", err)
	}
	root, start := tr.begin()
	traced, err := runPhase(wl, phaseSpec{mode: modeTimed, passes: len(untraced.passes), tr: tr, root: root})
	tr.end(root, 0, "workload", start)
	pprof.StopCPUProfile()
	if err != nil {
		return in, err
	}
	t.addPhase(&traced)
	checkDigests(t, &traced, "traced", digest)
	in.tracedWall = traced.wall

	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return in, err
	}
	in.shares = p.layerShares()

	unobs, err := runAux(wl, modeUnobserved, nil)
	if err != nil {
		return in, err
	}
	t.addPhase(&unobs)
	in.counts = &layerCounts{}
	counted, err := runAux(wl, modeCounted, in.counts)
	if err != nil {
		return in, err
	}
	t.addPhase(&counted)
	if unobs.passes[0].failed == 0 {
		// Observation never changes what the simulation does.
		want := unobs.passes[0].digest()
		checkDigests(t, &unobs, "unobserved", want)
		checkDigests(t, &counted, "observed", want)
	}
	in.unobservedWall, in.countedWall = unobs.meanPassWall(), counted.meanPassWall()

	in.micros = make(map[string]micro)
	for _, d := range drivers() {
		m, err := d.measure()
		if err != nil {
			return in, err
		}
		in.micros[d.name] = m
		fmt.Fprintf(stdout, "layer driver %-26s %12.1f ns/op %8.3f allocs/op\n", m.name, m.nsPerOp, m.allocsPerOp)
	}

	layers := make([]string, 0, len(in.shares))
	for l := range in.shares {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	line := "cpu share by layer:"
	for _, l := range layers {
		line += fmt.Sprintf(" %s=%.3f", l, in.shares[l])
	}
	fmt.Fprintln(stdout, line)
	fmt.Fprintln(stdout, selfTimeLine(tr.spans))
	fmt.Fprintf(stdout, "tracing overhead: traced %.3fs - untraced %.3fs = %.3fs\n",
		traced.wall.Seconds(), untraced.wall.Seconds(), (traced.wall - untraced.wall).Seconds())

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return in, err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.ndjson", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return in, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "host spans: %d written to %s\n", len(tr.spans), path)
	return in, nil
}

// repeatMode runs the workload o.repeat times in child processes, one
// seed each, and prints every metric's median, quartiles and spread
// (interquartile range over median) beside its bound.
func repeatMode(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	failed := 0
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + uint64(i)
		out, err := runChild(exe, o, seed, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", seed, err)
			return 1
		}
		if !out.Correct {
			failed++
		}
		names := make([]string, 0, len(out.Metrics))
		for n, m := range out.Metrics {
			values[n] = append(values[n], m.Value)
			names = append(names, n)
		}
		sort.Strings(names)
		line := fmt.Sprintf("seed %d: correct=%v attempted=%d failed=%d", seed, out.Correct, out.Attempted, out.Failed)
		for _, n := range names {
			line += fmt.Sprintf(" %s=%.6g", n, out.Metrics[n].Value)
		}
		fmt.Fprintln(stdout, line)
	}
	defs := endToEndDefs
	if o.trace == 1 {
		defs = perLayerDefs
	}
	type summary struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
	}
	all := map[string]summary{}
	fmt.Fprintf(stdout, "%-30s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, d := range defs {
		v := values[d.name]
		if len(v) < 2 {
			fmt.Fprintf(stdout, "%-30s reported by %d run(s)\n", d.name, len(v))
			continue
		}
		q1, q3 := quartiles(v)
		s := summary{Median: median(v), Q1: q1, Q3: q3}
		s.Spread = ratio(q3-q1, s.Median)
		all[d.name] = s
		fmt.Fprintf(stdout, "%-30s %14.6g %14.6g %14.6g %8.4f %6.2f\n", d.name, s.Median, q1, q3, s.Spread, d.bound)
	}
	line, err := json.Marshal(map[string]any{"workload": o.workload, "runs": o.repeat, "incorrect_runs": failed, "metrics": all})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed > 0 {
		return 1
	}
	return 0
}

// runChild runs one benchmark process and parses its result line.
func runChild(exe string, o options, seed uint64, stderr io.Writer) (*result, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe,
		"--workload", o.workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace), "--out-dir", o.outDir)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
