// Command mnsweep runs one-dimensional parameter sensitivity sweeps and
// emits CSV, supporting the paper's "we experimented modifying this
// parameter" notes (SerDes latency, interleave granularity, buffering,
// MLP window, switch bandwidth, and trace seed).
//
// Examples:
//
//	mnsweep -param serdes -values 0,1,2,5,10 -topology tree
//	mnsweep -param interleave -values 64,256,1024 -workload BUFF
//	mnsweep -param window -values 16,32,64,128 -topology chain
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"memnet"
)

func main() {
	var (
		param    = flag.String("param", "serdes", "serdes | interleave | window | buffers | switchbw | seed")
		values   = flag.String("values", "", "comma-separated values (required)")
		topoFlag = flag.String("topology", "tree", "chain | ring | tree | skiplist | metacube | mesh")
		wlFlag   = flag.String("workload", "KMEANS", "workload name")
		dramPct  = flag.Float64("dram-pct", 100, "percent of capacity from DRAM")
		txns     = flag.Uint64("txns", 8000, "transactions per run")
		cacheDir = flag.String("cache", "", "content-addressed result cache directory; hits skip simulation")
	)
	flag.Parse()

	if *values == "" {
		fmt.Fprintln(os.Stderr, "mnsweep: -values is required")
		os.Exit(2)
	}
	topo, err := memnet.ParseTopology(*topoFlag)
	check(err)

	fmt.Printf("param,value,finish_ns,mean_latency_ns,to_mem_ns,in_mem_ns,from_mem_ns,energy_uj\n")
	for _, v := range parseValues(*values) {
		sys := memnet.DefaultSystem()
		cfg := memnet.DefaultConfig()
		cfg.Topology = topo
		cfg.Workload = *wlFlag
		cfg.DRAMFraction = *dramPct / 100
		cfg.Transactions = *txns

		switch *param {
		case "serdes":
			sys.SerDesLatency = memnet.Time(v) * memnet.Nanosecond
		case "interleave":
			sys.InterleaveBytes = uint64(v)
		case "window":
			sys.MaxOutstanding = int(v)
		case "buffers":
			sys.LinkBufferPackets = int(v)
		case "switchbw":
			tn := memnet.DefaultTuning()
			tn.SwitchBandwidthBps = v * 1e9
			cfg.Tuning = &tn
		case "seed":
			cfg.Seed = uint64(v)
		default:
			fmt.Fprintf(os.Stderr, "mnsweep: unknown param %q\n", *param)
			os.Exit(2)
		}
		cfg.System = &sys

		res, _, err := memnet.RunCached(cfg, *cacheDir)
		check(err)
		fmt.Printf("%s,%d,%.1f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			*param, v,
			res.FinishTime.Nanoseconds(),
			res.MeanLatency.Nanoseconds(),
			res.Breakdown.ToMem.Nanoseconds(),
			res.Breakdown.InMem.Nanoseconds(),
			res.Breakdown.FromMem.Nanoseconds(),
			res.Energy.TotalPJ()/1e6)
	}
}

// parseValues parses the comma-separated -values list, dropping
// duplicates (first occurrence wins, with a warning) so a repeated
// value does not silently produce a repeated sweep point.
func parseValues(s string) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, vs := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(vs), 10, 64)
		check(err)
		if seen[v] {
			fmt.Fprintf(os.Stderr, "mnsweep: duplicate value %d in -values ignored\n", v)
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnsweep:", err)
		os.Exit(1)
	}
}
