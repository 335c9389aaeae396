// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each figure is a
// function returning a Table whose rows/series mirror the paper's plot;
// cmd/mnexp prints them and bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/pool"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// Options controls experiment scale. The JSON form is embedded in
// campaign manifests; Parallel is excluded from it because worker count
// is a machine property, not an experiment input (results are
// bit-identical at any worker count).
type Options struct {
	// Transactions per simulation run.
	Transactions uint64 `json:"transactions"`
	// Seed for workload generation.
	Seed uint64 `json:"seed"`
	// Workloads restricts the suite (nil = all eight).
	Workloads []string `json:"workloads,omitempty"`
	// Parallel is the worker count for fanning independent simulation
	// runs across cores (each run is its own engine, so results are
	// bit-identical regardless of scheduling). Zero means GOMAXPROCS.
	Parallel int `json:"-"`
}

// DefaultOptions gives publication-scale runs.
func DefaultOptions() Options {
	return Options{Transactions: 20000, Seed: 1, Parallel: runtime.GOMAXPROCS(0)}
}

// QuickOptions gives fast runs for tests.
func QuickOptions() Options {
	return Options{Transactions: 2500, Seed: 1, Parallel: runtime.GOMAXPROCS(0)}
}

func (o Options) suite() []workload.Spec {
	all := workload.Suite()
	if len(o.Workloads) == 0 {
		return all
	}
	var out []workload.Spec
	for _, name := range o.Workloads {
		for _, s := range all {
			if s.Name == name {
				out = append(out, s)
			}
		}
	}
	return out
}

// MNConfig identifies one evaluated memory-network configuration.
type MNConfig struct {
	// Topo is the per-port network topology.
	Topo topology.Kind
	// DRAMFraction of total capacity (1.0 = all DRAM).
	DRAMFraction float64
	// Placement positions NVM cubes in mixed networks.
	Placement config.Placement
	// Arb is the router arbitration policy.
	Arb arb.Kind
}

// Label renders the paper-style configuration name (without the
// arbitration, which figures state separately).
func (c MNConfig) Label() string {
	pct := int(c.DRAMFraction*100 + 0.5)
	if pct > 0 && pct < 100 {
		return fmt.Sprintf("%d%%-%s (%s)", pct, c.Topo.Letter(), c.Placement)
	}
	return fmt.Sprintf("%d%%-%s", pct, c.Topo.Letter())
}

// ratios are the DRAM:NVM mixes every figure sweeps: 100%, 50% NVM-L,
// 50% NVM-F, 0%.
type ratio struct {
	frac  float64
	place config.Placement
}

var ratios = []ratio{
	{1.0, config.NVMLast},
	{0.5, config.NVMLast},
	{0.5, config.NVMFirst},
	{0.0, config.NVMLast},
}

// SimFunc executes one simulation run. It is the Runner's pluggable
// backend: the default is core.Simulate; internal/campaign substitutes
// a content-addressed-cache wrapper, and campaign grid enumeration
// substitutes a recorder that never simulates at all. A SimFunc must be
// safe for concurrent calls (Warm invokes it from worker goroutines)
// and must be a pure function of its Params.
type SimFunc func(core.Params) (core.Results, error)

// Runner executes and memoizes simulation runs. It is not safe for
// concurrent use; experiments are run sequentially for determinism.
type Runner struct {
	// Opts is the experiment scale every run of this Runner shares.
	Opts Options
	// Sys is the base system configuration each run derives from.
	Sys config.System
	// Sim, when non-nil, replaces core.Simulate as the backend executing
	// each run (see SimFunc). Figure harnesses that build sub-runners
	// (Fig13's four-port system, Fig14's half-capacity system) propagate
	// it, so a cache or recorder hook observes every simulation of a
	// campaign.
	Sim   SimFunc
	cache map[runKey]core.Results
}

type runKey struct {
	cfg      MNConfig
	workload string
	ports    int
	capacity uint64
}

// NewRunner returns a runner over the default Table 2 system.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts, Sys: config.Default(), cache: make(map[runKey]core.Results)}
}

// params assembles the core parameters for one pair.
func (r *Runner) params(cfg MNConfig, wl workload.Spec) core.Params {
	sys := r.Sys
	sys.DRAMFraction = cfg.DRAMFraction
	sys.Placement = cfg.Placement
	return core.Params{
		Sys:          sys,
		Topo:         cfg.Topo,
		Arb:          cfg.Arb,
		Workload:     wl,
		Transactions: r.Opts.Transactions,
		Seed:         r.Opts.Seed,
	}
}

func (r *Runner) key(cfg MNConfig, wl workload.Spec) runKey {
	return runKey{cfg: cfg, workload: wl.Name, ports: r.Sys.Ports, capacity: r.Sys.TotalCapacity}
}

// simulate executes one run through the pluggable backend (Sim if set,
// core.Simulate otherwise), bypassing the Runner's memoization.
func (r *Runner) simulate(p core.Params) (core.Results, error) {
	if r.Sim != nil {
		return r.Sim(p)
	}
	return core.Simulate(p)
}

// derive returns a fresh Runner with the given options that inherits
// this Runner's base system and simulation backend (but not its memo
// cache — the derived runner usually simulates a different system).
func (r *Runner) derive(opts Options) *Runner {
	d := NewRunner(opts)
	d.Sys = r.Sys
	d.Sim = r.Sim
	return d
}

// Run simulates one configuration/workload pair (memoized).
func (r *Runner) Run(cfg MNConfig, wl workload.Spec) (core.Results, error) {
	key := r.key(cfg, wl)
	if res, ok := r.cache[key]; ok {
		return res, nil
	}
	res, err := r.simulate(r.params(cfg, wl))
	if err != nil {
		return core.Results{}, fmt.Errorf("%s/%s: %w", cfg.Label(), wl.Name, err)
	}
	r.cache[key] = res
	return res, nil
}

// pair is one (configuration, workload) simulation.
type pair struct {
	cfg MNConfig
	wl  workload.Spec
}

// Warm executes all missing (cfg, workload) pairs concurrently on the
// pool.ForEach run pool and fills the cache. Each simulation is an independent
// engine, so parallel scheduling cannot change any result. The error of
// the earliest failing pair is returned, and no results are cached when
// any run fails.
func (r *Runner) Warm(cfgs []MNConfig, suite []workload.Spec) error {
	var todo []pair
	seen := map[runKey]bool{}
	for _, cfg := range cfgs {
		for _, wl := range suite {
			k := r.key(cfg, wl)
			if _, ok := r.cache[k]; ok || seen[k] {
				continue
			}
			seen[k] = true
			todo = append(todo, pair{cfg, wl})
		}
	}
	results := make([]core.Results, len(todo))
	err := pool.ForEach(r.Opts.Parallel, len(todo), func(i int) error {
		p := todo[i]
		res, err := r.simulate(r.params(p.cfg, p.wl))
		if err != nil {
			return fmt.Errorf("%s/%s: %w", p.cfg.Label(), p.wl.Name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	for i, p := range todo {
		r.cache[r.key(p.cfg, p.wl)] = results[i]
	}
	return nil
}

// Speedup computes the paper's speedup metric of cfg over base for one
// workload: base execution time over cfg execution time, minus one.
func (r *Runner) Speedup(cfg, base MNConfig, wl workload.Spec) (float64, error) {
	a, err := r.Run(cfg, wl)
	if err != nil {
		return 0, err
	}
	b, err := r.Run(base, wl)
	if err != nil {
		return 0, err
	}
	return float64(b.FinishTime)/float64(a.FinishTime) - 1, nil
}

// Table is a generic labeled grid: one row per configuration/series, one
// column per workload (plus optional trailing aggregate columns). The
// JSON form is the interchange format of campaign manifests
// (results/experiments.json) and the cmd/mndocs renderer.
type Table struct {
	// ID is the experiment's short name, e.g. "fig4".
	ID string `json:"id"`
	// Title is the paper-style caption printed above the table.
	Title string `json:"title"`
	// Columns are the value-column headers (usually workload names plus
	// a trailing aggregate).
	Columns []string `json:"columns"`
	// Rows are the labeled series in presentation order.
	Rows []Row `json:"rows"`
	// Unit annotates cell values, e.g. "% speedup" or "relative".
	Unit string `json:"unit,omitempty"`
}

// Row is one labeled series.
type Row struct {
	// Label names the series, e.g. "100%-T".
	Label string `json:"label"`
	// Values align with the Table's Columns.
	Values []float64 `json:"values"`
}

// Cell returns the value at (rowLabel, column), for tests.
func (t *Table) Cell(rowLabel, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, row := range t.Rows {
		if row.Label == rowLabel && ci < len(row.Values) {
			return row.Values[ci], true
		}
	}
	return 0, false
}

// RowByLabel returns the named row, for tests.
func (t *Table) RowByLabel(label string) (Row, bool) {
	for _, row := range t.Rows {
		if row.Label == label {
			return row, true
		}
	}
	return Row{}, false
}

// mean returns the arithmetic mean of vals.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// workloadColumns returns suite names plus "average".
func workloadColumns(suite []workload.Spec) []string {
	cols := make([]string, 0, len(suite)+1)
	for _, s := range suite {
		cols = append(cols, s.Name)
	}
	return append(cols, "average")
}

// speedupTable builds the common figure shape: for each config, the
// percent speedup over a per-workload baseline, with a trailing average.
func (r *Runner) speedupTable(id, title string, cfgs []MNConfig, base func(MNConfig) MNConfig) (*Table, error) {
	suite := r.Opts.suite()
	warm := append([]MNConfig(nil), cfgs...)
	for _, cfg := range cfgs {
		warm = append(warm, base(cfg))
	}
	if err := r.Warm(warm, suite); err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Columns: workloadColumns(suite), Unit: "% speedup"}
	for _, cfg := range cfgs {
		vals := make([]float64, 0, len(suite)+1)
		for _, wl := range suite {
			s, err := r.Speedup(cfg, base(cfg), wl)
			if err != nil {
				return nil, err
			}
			vals = append(vals, s*100)
		}
		vals = append(vals, mean(vals))
		t.Rows = append(t.Rows, Row{Label: cfg.Label(), Values: vals})
	}
	return t, nil
}

// sortedKeys is a test helper exposing cache coverage.
func (r *Runner) sortedKeys() []string {
	keys := make([]string, 0, len(r.cache))
	for k := range r.cache {
		keys = append(keys, fmt.Sprintf("%s/%s/p%d", k.cfg.Label(), k.workload, k.ports))
	}
	sort.Strings(keys)
	return keys
}
