// Command mnbench measures the simulator's hot loop and records the
// result in BENCH_engine.json, the perf baseline future changes are
// judged against. It reruns the same work as the repo's
// BenchmarkFig4TopologySpeedup (the end-to-end figure regeneration that
// funnels every subsystem through sim.Engine) plus the raw event-dispatch
// microbenchmark, and emits both next to the recorded pre-overhaul seed
// numbers so the report is self-contained:
//
//	mnbench                  # write BENCH_engine.json in the cwd
//	mnbench -out /tmp/b.json # elsewhere
//	mnbench -txns 8000       # heavier per-run trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"memnet/internal/experiments"
	"memnet/internal/sim"
)

// Measurement is one benchmark result in ns/op + allocation terms.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Comparison pairs the recorded seed baseline with a fresh measurement.
type Comparison struct {
	Description string `json:"description"`
	// Shards is the worker-goroutine count the measurement ran with
	// (1 = sequential engine; 0 for pre-parallel benchmarks).
	Shards      int         `json:"shards,omitempty"`
	Seed        Measurement `json:"seed_baseline"`
	Current     Measurement `json:"current"`
	NsDeltaPct  float64     `json:"ns_delta_pct"`
	AllocsDelta float64     `json:"allocs_delta_pct"`
}

// Report is the BENCH_engine.json schema.
type Report struct {
	Note         string `json:"note"`
	Transactions uint64 `json:"transactions_per_run"`
	// CPUs and GOMAXPROCS record the machine the numbers were taken on:
	// the FigNParallel speedups are bounded by min(shards, CPUs), so a
	// 1-CPU container legitimately records ~1x there.
	CPUs       int                   `json:"cpus"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Benchmarks map[string]Comparison `json:"benchmarks"`
}

// Seed-engine numbers, recorded on the container/heap scheduler at the
// growth seed (commit d04e491) with -benchtime 3x -benchmem on the same
// workload sizes mnbench runs. They are the "before" in every report
// this tool writes; "current" is measured fresh each invocation.
var seedBaseline = map[string]Measurement{
	"Fig4TopologySpeedup": {NsPerOp: 2608497079, AllocsPerOp: 21083629, BytesPerOp: 487119733, Iterations: 3},
	"EngineEvents":        {NsPerOp: 91.76, AllocsPerOp: 2, BytesPerOp: 48, Iterations: 13590280},
}

func measure(f func(b *testing.B)) Measurement {
	r := testing.Benchmark(f)
	return Measurement{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

func compare(desc string, seed, cur Measurement) Comparison {
	pct := func(before, after float64) float64 {
		if before == 0 {
			return 0
		}
		return (after - before) / before * 100
	}
	return Comparison{
		Description: desc,
		Seed:        seed,
		Current:     cur,
		NsDeltaPct:  pct(seed.NsPerOp, cur.NsPerOp),
		AllocsDelta: pct(float64(seed.AllocsPerOp), float64(cur.AllocsPerOp)),
	}
}

func main() {
	var (
		out  = flag.String("out", "BENCH_engine.json", "report path")
		txns = flag.Uint64("txns", 4000, "transactions per simulation run (matches bench_test default)")
	)
	flag.Parse()

	rep := Report{
		Note: "Engine hot-path baseline. Regenerate with `go run ./cmd/mnbench` " +
			"after any scheduler or hot-path change; negative deltas are improvements " +
			"over the container/heap seed engine. Fig4Parallel{2,4,8} share the " +
			"sequential Fig4 seed baseline, so their ns_delta_pct is the parallel " +
			"speedup trajectory (bounded by min(shards, cpus)).",
		Transactions: *txns,
		CPUs:         runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Benchmarks:   map[string]Comparison{},
	}

	fig4Bench := func(parallel int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := experiments.NewRunner(experiments.Options{Transactions: *txns, Seed: 1, Parallel: parallel})
				if _, err := r.Fig4(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	fmt.Fprintln(os.Stderr, "mnbench: running Fig4TopologySpeedup...")
	fig4 := measure(fig4Bench(1))
	seq := compare(
		"End-to-end Fig. 4 regeneration: every topology x workload pair through the full simulator (sequential)",
		seedBaseline["Fig4TopologySpeedup"], fig4)
	seq.Shards = 1
	rep.Benchmarks["Fig4TopologySpeedup"] = seq

	for _, n := range []int{2, 4, 8} {
		name := fmt.Sprintf("Fig4Parallel%d", n)
		fmt.Fprintf(os.Stderr, "mnbench: running %s...\n", name)
		c := compare(
			fmt.Sprintf("Fig. 4 regeneration fanned over %d workers; tables are bit-identical to the sequential run", n),
			seedBaseline["Fig4TopologySpeedup"], measure(fig4Bench(n)))
		c.Shards = n
		rep.Benchmarks[name] = c
	}

	fmt.Fprintln(os.Stderr, "mnbench: running EngineEvents...")
	events := measure(func(b *testing.B) {
		b.ReportAllocs()
		eng := sim.NewEngine()
		var fn func()
		n := 0
		fn = func() {
			n++
			if n < b.N {
				eng.Schedule(1, fn)
			}
		}
		eng.Schedule(1, fn)
		eng.Run()
	})
	rep.Benchmarks["EngineEvents"] = compare(
		"Raw event schedule+dispatch through the heap (one pending event)",
		seedBaseline["EngineEvents"], events)

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "mnbench:", err)
		os.Exit(1)
	}
	for name, c := range rep.Benchmarks {
		fmt.Printf("%-22s %12.1f ns/op (%+.1f%%)  %9d allocs/op (%+.1f%%)\n",
			name, c.Current.NsPerOp, c.NsDeltaPct, c.Current.AllocsPerOp, c.AllocsDelta)
	}
	fmt.Println("wrote", *out)
}
