package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/experiments"
	"memnet/internal/fault"
	"memnet/internal/obs"
	"memnet/internal/sim"
	"memnet/internal/span"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// Input sizes. Each is chosen so one pass is a few host seconds on two
// CPUs and a ten-second run gathers at least minRuns run samples.
const (
	figuresTxns   = 1000 // transactions per figure run (256 runs a pass)
	machineTxns   = 1500 // transactions per host port (8 ports a run)
	faultsTxns    = 4000 // transactions per chaos run (40 runs a pass)
	faultsTrace   = 256  // lifecycle-trace depth of a chaos run
	machineWL     = "BACKPROP"
	portSeedShift = 0x9e3779b97f4a7c15 // core.RunMachine's per-port seed stride
)

// benchWorkload is one benchmark workload: a fixed list of simulation
// runs made from the seed, run by a closed loop of at most nproc
// workers.
type benchWorkload interface {
	// workers is the closed loop's worker count.
	workers() int
	// runsPerPass and txnsPerRun state the input size.
	runsPerPass() int
	txnsPerRun() uint64
	// setup builds every instance one pass builds and discards them.
	setup() error
	// pass runs the run list once. Runs are recorded as children of
	// root on tr (nil when untraced).
	pass(mode passMode, tr *tracer, root int64, c *layerCounts) passOut
	// check runs the workload's invariants beyond the per-run ones
	// against a completed pass.
	check(ref *passOut) (attempted int, errs []string)
}

// newWorkload makes the named workload's inputs from seed.
func newWorkload(name string, seed uint64, workers int) (benchWorkload, error) {
	switch name {
	case "figures":
		return newFigures(seed, workers)
	case "machine-skiplist":
		return newMachine(seed, workers)
	case "faults-observed":
		return newFaults(seed, workers)
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, machine-skiplist or faults-observed)", name)
}

// ---- figures ----

// figures regenerates Figs. 4, 10 and 11 cold through
// experiments.Runner, whose Sim hook the benchmark fills with timed
// calls to core.Build and Instance.Run.
type figures struct {
	seed  uint64
	par   int
	grid  []core.Params // every run of one pass, in run order
	index map[string]int
}

func runKey(p core.Params) string {
	return p.Label() + "|" + p.Arb.String() + "|" + p.Workload.Name
}

func generateFigures(r *experiments.Runner) error {
	for _, fig := range []func() (*experiments.Table, error){r.Fig4, r.Fig10, r.Fig11} {
		if _, err := fig(); err != nil {
			return err
		}
	}
	return nil
}

func newFigures(seed uint64, workers int) (*figures, error) {
	f := &figures{seed: seed, par: workers, index: make(map[string]int)}
	// Enumerate the run list by generating the figures against a
	// recorder that never simulates; one worker keeps the order fixed.
	r := f.runner(1)
	r.Sim = func(p core.Params) (core.Results, error) {
		f.index[runKey(p)] = len(f.grid)
		f.grid = append(f.grid, p)
		return core.Results{FinishTime: 1, Transactions: p.Transactions}, nil
	}
	if err := generateFigures(r); err != nil {
		return nil, fmt.Errorf("figures: enumerate runs: %w", err)
	}
	return f, nil
}

func (f *figures) runner(par int) *experiments.Runner {
	return experiments.NewRunner(experiments.Options{Transactions: figuresTxns, Seed: f.seed, Parallel: par})
}

func (f *figures) workers() int       { return f.par }
func (f *figures) runsPerPass() int   { return len(f.grid) }
func (f *figures) txnsPerRun() uint64 { return figuresTxns }

func (f *figures) setup() error {
	for _, p := range f.grid {
		if _, err := core.Build(p); err != nil {
			return err
		}
	}
	return nil
}

func (f *figures) pass(mode passMode, tr *tracer, root int64, c *layerCounts) passOut {
	out := passOut{results: make([]core.Results, len(f.grid))}
	seen := make([]bool, len(f.grid))
	var mu sync.Mutex
	r := f.runner(f.par)
	r.Sim = func(p core.Params) (core.Results, error) {
		rp := p
		if mode == modeCounted {
			rp = observe(p)
		}
		ro, err := runOne(rp, tr, root, c)
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		if err != nil {
			out.fail("%v", err)
			return ro.res, err
		}
		if err := checkRun(p, ro.res); err != nil {
			out.fail("%v", err)
		}
		i, ok := f.index[runKey(p)]
		if !ok || seen[i] {
			out.fail("figures: run %s outside the enumerated run list", runKey(p))
		} else {
			seen[i] = true
			out.results[i] = ro.res
		}
		out.runs = append(out.runs, runRec{ms: ms(ro.dur), txns: ro.res.Transactions, events: ro.res.Events})
		return ro.res, nil
	}
	start := time.Now()
	err := generateFigures(r)
	out.wall = time.Since(start)
	if err != nil && out.failed == 0 {
		out.fail("figures: %v", err)
	}
	for i, ok := range seen {
		if !ok && err == nil {
			out.fail("figures: run %s never simulated", runKey(f.grid[i]))
		}
	}
	return out
}

// check reruns every 16th run one at a time (Parallel 1) and requires
// Results identical to the pool's.
func (f *figures) check(ref *passOut) (int, []string) {
	var errs []string
	n := 0
	for i := 0; i < len(f.grid); i += 16 {
		n++
		res, err := core.Simulate(f.grid[i])
		if err != nil {
			errs = append(errs, fmt.Sprintf("figures: sequential rerun: %v", err))
		} else if res != ref.results[i] {
			errs = append(errs, fmt.Sprintf("figures: %s differs between Parallel 1 and %d", runKey(f.grid[i]), f.par))
		}
	}
	return n, errs
}

// ---- machine-skiplist ----

// machine runs the whole 8-port machine with core.RunMachine: skip
// list, distance-augmented arbitration, write-heavy BACKPROP.
type machine struct {
	base core.Params
	par  int
}

func newMachine(seed uint64, workers int) (*machine, error) {
	wl, err := workload.ByName(machineWL)
	if err != nil {
		return nil, err
	}
	return &machine{par: workers, base: core.Params{
		Sys: config.Default(), Topo: topology.SkipList, Arb: arb.DistanceAugmented,
		Workload: wl, Transactions: machineTxns, Seed: seed,
	}}, nil
}

func (m *machine) workers() int       { return 1 } // one RunMachine at a time, over par shards
func (m *machine) runsPerPass() int   { return 1 }
func (m *machine) txnsPerRun() uint64 { return machineTxns * uint64(m.base.Sys.Ports) }

// setup builds each port's instance with the parameters RunMachine
// derives for it.
func (m *machine) setup() error {
	for i := 0; i < m.base.Sys.Ports; i++ {
		p := m.base
		p.Seed += uint64(i) * portSeedShift
		if _, err := core.Build(p); err != nil {
			return err
		}
	}
	return nil
}

func (m *machine) pass(mode passMode, tr *tracer, root int64, c *layerCounts) passOut {
	var out passOut
	start := time.Now()
	if mode != modeTimed {
		// RunMachine rejects observers; the single-port run is port 0
		// of the machine bit for bit (checked), so it stands in.
		p := m.base
		if mode == modeCounted {
			p = observe(p)
		}
		ro, err := runOne(p, tr, root, c)
		out.wall = time.Since(start)
		out.attempted = 1
		if err != nil {
			out.fail("%v", err)
			return out
		}
		out.results = []core.Results{ro.res}
		out.runs = []runRec{{ms: ms(ro.dur), txns: ro.res.Transactions, events: ro.res.Events}}
		return out
	}
	id, rs := tr.begin()
	mr, err := core.RunMachine(core.MachineParams{Base: m.base, Shards: m.par})
	d := tr.end(id, root, "core.RunMachine", rs)
	out.wall = time.Since(start)
	out.attempted = 1
	if err != nil {
		out.fail("machine: %v", err)
		return out
	}
	for port, r := range mr.PerPort {
		p := m.base
		p.Seed += uint64(port) * portSeedShift
		if err := checkRun(p, r); err != nil {
			out.fail("machine port %d: %v", port, err)
		}
	}
	out.results = mr.PerPort
	out.runs = []runRec{{ms: ms(d), txns: mr.Transactions, events: mr.Events}}
	for _, s := range mr.Shards {
		out.shardEvents = append(out.shardEvents, s.Events)
	}
	return out
}

// check requires port 0 of the machine to equal the single-port run.
func (m *machine) check(ref *passOut) (int, []string) {
	res, err := core.Simulate(m.base)
	switch {
	case err != nil:
		return 1, []string{fmt.Sprintf("machine: single-port run: %v", err)}
	case len(ref.results) == 0 || res != ref.results[0]:
		return 1, []string{"machine: port 0 differs from the single-port run"}
	}
	return 1, nil
}

// ---- faults-observed ----

// faults runs every topology x the eight-proxy suite under a seeded
// fault.Chaos schedule with telemetry, spans and the lifecycle trace on,
// serializing each run's span NDJSON and manifest.
type faults struct {
	par  int
	grid []core.Params // observed, fault-armed runs in run order
}

var faultTopos = []topology.Kind{topology.Chain, topology.Ring, topology.Tree, topology.SkipList, topology.MetaCube}

func newFaults(seed uint64, workers int) (*faults, error) {
	f := &faults{par: workers}
	for _, topo := range faultTopos {
		for _, wl := range workload.Suite() {
			p := core.Params{
				Sys: config.Default(), Topo: topo, Arb: arb.RoundRobin,
				Workload: wl, Transactions: faultsTxns, Seed: seed,
			}
			techs, err := core.TechOrder(&p.Sys)
			if err != nil {
				return nil, err
			}
			g, err := topology.Build(topo, techs, topology.WithMetaCubeGroup(core.DefaultTuning().MetaCubeGroup))
			if err != nil {
				return nil, err
			}
			fc, err := fault.Chaos(g, fault.ChaosSpec{
				Seed:      seed,
				Horizon:   sim.Time(faultsTxns) * wl.MeanGap / 2,
				LinkKills: 2, CubeKills: 2, LaneFlaps: 2,
				LinkBER: 1e-7,
			})
			if err != nil {
				return nil, fmt.Errorf("faults: chaos schedule for %s/%s: %w", p.Label(), wl.Name, err)
			}
			p = observe(p)
			p.Fault = &fc
			p.TraceDepth = faultsTrace
			f.grid = append(f.grid, p)
		}
	}
	return f, nil
}

func (f *faults) workers() int       { return f.par }
func (f *faults) runsPerPass() int   { return len(f.grid) }
func (f *faults) txnsPerRun() uint64 { return faultsTxns }

func (f *faults) setup() error {
	for _, p := range f.grid {
		if _, err := core.Build(p); err != nil {
			return err
		}
	}
	return nil
}

func unobserved(p core.Params) core.Params {
	p.Obs, p.Spans, p.TraceDepth = nil, nil, 0
	return p
}

func (f *faults) pass(mode passMode, tr *tracer, root int64, c *layerCounts) passOut {
	n := len(f.grid)
	out := passOut{attempted: n, results: make([]core.Results, n)}
	durs := make([]time.Duration, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < f.par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				p := f.grid[i]
				if mode == modeUnobserved {
					p = unobserved(p)
				}
				ro, err := runOne(p, tr, root, c)
				out.results[i], durs[i], errs[i] = ro.res, ro.dur, err
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	for i, res := range out.results {
		p := f.grid[i]
		if errs[i] != nil {
			out.fail("%v", errs[i])
			continue
		}
		if err := checkRun(p, res); err != nil {
			out.fail("%v", err)
		}
		if err := checkFaultCounters(*p.Fault, res); err != nil {
			out.fail("faults %s/%s: %v", p.Label(), p.Workload.Name, err)
		}
		out.runs = append(out.runs, runRec{ms: ms(durs[i]), txns: res.Transactions, events: res.Events})
	}
	return out
}

// check reruns one run per topology twice: observed, where its span file
// must parse and pass span.Check and its manifest must validate against
// the manifest schema, and with observation off. Both must reproduce
// the reference Results.
func (f *faults) check(ref *passOut) (int, []string) {
	var errs []string
	n := 0
	per := len(workload.Suite())
	for i := 0; i < len(f.grid); i += per {
		p := f.grid[i]
		what := p.Label() + "/" + p.Workload.Name
		n++
		ro, err := runOne(p, nil, 0, nil)
		if err != nil {
			errs = append(errs, fmt.Sprintf("faults %s: observed replay: %v", what, err))
			continue
		}
		n++
		if ro.res != ref.results[i] {
			errs = append(errs, fmt.Sprintf("faults %s: observed replay differs", what))
		}
		n++
		if _, spans, err := span.Read(bytes.NewReader(ro.spans)); err != nil {
			errs = append(errs, fmt.Sprintf("faults %s: span file: %v", what, err))
		} else if err := span.Check(spans); err != nil {
			errs = append(errs, fmt.Sprintf("faults %s: span.Check: %v", what, err))
		}
		n++
		if err := obs.ValidateManifestJSON(ro.manifest); err != nil {
			errs = append(errs, fmt.Sprintf("faults %s: manifest: %v", what, err))
		}
		n++
		res, err := core.Simulate(unobserved(p))
		if err != nil {
			errs = append(errs, fmt.Sprintf("faults %s: unobserved replay: %v", what, err))
		} else if res != ref.results[i] {
			errs = append(errs, fmt.Sprintf("faults %s: unobserved replay differs", what))
		}
	}
	return n, errs
}

// checkFaultCounters requires every scheduled fault and repair to have
// been applied and, with unbounded retries, no packet dropped.
func checkFaultCounters(fc fault.Config, r core.Results) error {
	c := r.Fault
	if c.Dropped != 0 {
		return fmt.Errorf("%d packets dropped with unbounded retries", c.Dropped)
	}
	for _, w := range []struct {
		what      string
		got, want int
	}{
		{"links killed", int(c.LinksKilled), len(fc.KillLinks)},
		{"links repaired", int(c.LinksRepaired), len(fc.RepairLinks)},
		{"cubes killed", int(c.CubesKilled), len(fc.KillCubes)},
		{"cubes repaired", int(c.CubesRepaired), len(fc.RepairCubes)},
		{"lanes flapped down", int(c.LaneFails), len(fc.LaneFlaps)},
		{"lanes flapped up", int(c.LaneRepairs), len(fc.LaneFlaps)},
	} {
		if w.got != w.want {
			return fmt.Errorf("%s: %d applied, %d scheduled", w.what, w.got, w.want)
		}
	}
	return nil
}
