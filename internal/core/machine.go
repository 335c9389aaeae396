package core

import (
	"fmt"

	"memnet/internal/energy"
	"memnet/internal/obs"
	"memnet/internal/sim"
)

// portSeedStride decorrelates per-port workload streams. Port 0 keeps
// the base seed, so a machine run's first port reproduces the
// single-port simulation bit for bit (pinned by tests).
const portSeedStride = 0x9e3779b97f4a7c15

// MachineParams configures a whole-machine run: the full processor with
// Base.Sys.Ports host ports, each driving its own disjoint memory
// network (§2.3 — ports do not share cubes, so the machine partitions
// exactly along port boundaries). Base holds the per-port simulation
// parameters; per-port seeds are derived from Base.Seed so ports are
// statistically independent but the whole run stays reproducible.
type MachineParams struct {
	Base Params
	// Shards is the number of worker goroutines advancing the port
	// partitions (clamped to [1, ports]). Results are bit-identical for
	// every value; 1 is the sequential fallback.
	Shards int
}

// ShardLoad is one port shard's parallel-engine introspection record:
// how much work the shard did, how it interacted with the cross-shard
// machinery, and how long it idled at the final barrier. JSON tags match
// the run-manifest schema's machine.shards entries.
type ShardLoad struct {
	// Shard is the shard index (= host port for machine runs).
	Shard int `json:"shard"`
	// Events counts events fired on the shard's engine.
	Events uint64 `json:"events"`
	// Posts counts cross-shard events the shard sent.
	Posts uint64 `json:"posts"`
	// Merged counts cross-shard events drained into the shard.
	Merged uint64 `json:"merged"`
	// MaxInbox is the peak cross-shard inbox depth.
	MaxInbox int `json:"max_inbox"`
	// FinishPs is the shard engine's final clock, in picoseconds.
	FinishPs int64 `json:"finish_ps"`
	// BarrierWaitPs is how long the shard idled at the final barrier:
	// the machine finish time minus the shard's own finish time.
	BarrierWaitPs int64 `json:"barrier_wait_ps"`
	// LookaheadSlack is the shard's post-slack histogram (see
	// sim.SlackHist); all-zero when the partition has no boundary
	// channels.
	LookaheadSlack sim.SlackHist `json:"lookahead_slack"`
}

// MachineRecord is the manifest's parallel-engine introspection block.
type MachineRecord struct {
	// Ports is the number of host ports (= shards).
	Ports int `json:"ports"`
	// Windows counts synchronization windows the engine executed.
	Windows uint64 `json:"windows"`
	// EventsPerWindow is total events over windows.
	EventsPerWindow float64 `json:"events_per_window"`
	// Shards holds the per-shard load records, in shard order.
	Shards []ShardLoad `json:"shards"`
}

// MachineResults aggregates a whole-machine run.
type MachineResults struct {
	// PerPort holds each port's full Results, index = port = shard ID.
	PerPort []Results
	// FinishTime is the machine's execution time: the slowest port.
	FinishTime sim.Time
	// MeanLatency is the transaction-weighted mean latency across ports.
	MeanLatency sim.Time
	// Energy sums the per-port dynamic-energy accounts.
	Energy energy.Breakdown
	// Transactions, Reads, Writes, and Events sum the per-port counts.
	Transactions uint64
	Reads        uint64
	Writes       uint64
	Events       uint64
	// MeanHops is the transaction-weighted mean response hop count.
	MeanHops float64
	// Fairness is Jain's index over per-port finish times: 1.0 when
	// every port finishes together, lower when load or faults skew one
	// port's completion.
	Fairness float64
	// Windows counts the parallel engine's synchronization windows.
	Windows uint64
	// Shards holds the per-shard engine introspection, in shard order.
	Shards []ShardLoad
}

// RunMachine builds one per-port simulation per host port, places each
// on its own shard of a sim.Parallel engine, and runs them to
// completion over MachineParams.Shards worker goroutines. The port
// partitions are fully independent (no cross-shard channels), so this
// is the infinite-lookahead case of the conservative engine and results
// are bit-identical at every shard count.
func RunMachine(mp MachineParams) (MachineResults, error) {
	base := mp.Base
	if base.Record || base.TraceDepth > 0 {
		return MachineResults{}, fmt.Errorf("core: machine runs do not support Record or TraceDepth (per-port traces would need a merge policy)")
	}
	if base.Obs.On() {
		return MachineResults{}, fmt.Errorf("core: machine runs do not support telemetry yet (per-shard probe merge is per-port; use single-port runs)")
	}
	if base.Spans.Enabled() {
		return MachineResults{}, fmt.Errorf("core: machine runs do not support span tracing (per-port span files would need a merge policy; use single-port runs)")
	}
	if err := base.validateSys(); err != nil {
		return MachineResults{}, err
	}
	ports := base.Sys.Ports

	par := sim.NewParallel(ports)
	insts := make([]*Instance, ports)
	results := make([]Results, ports)
	errs := make([]error, ports)
	for i := 0; i < ports; i++ {
		p := base
		p.Seed = base.Seed + uint64(i)*portSeedStride
		if p.Fault != nil {
			// Copy so the derived seed never mutates the caller's config.
			fc := *p.Fault
			if fc.Seed == 0 {
				fc.Seed = 1
			}
			fc.Seed += uint64(i) * portSeedStride
			p.Fault = &fc
		}
		shard := par.Shard(i)
		inst, err := buildOn(shard.Engine(), p)
		if err != nil {
			return MachineResults{}, fmt.Errorf("core: machine: port %d: %w", i, err)
		}
		if inst.Watchdog != nil {
			inst.Watchdog.SetShard(shard.ID())
		}
		insts[i] = inst
		i := i
		// Each port partition has no boundary channels, so its window is
		// unbounded: the body runs the whole port simulation and is done.
		shard.SetBody(func(_ *sim.Engine, _ sim.Time) bool {
			//lint:sharded shard body: runs on the shard's own worker goroutine; slot i is not shared
			results[i], errs[i] = inst.Run()
			return true
		})
	}
	par.Run(mp.Shards)

	for i, err := range errs {
		if err != nil {
			return MachineResults{}, fmt.Errorf("core: machine: port %d: %w", i, err)
		}
	}

	mr := MachineResults{PerPort: results}
	finish := make([]uint64, ports)
	var latW, hopW float64
	for i, r := range results {
		if r.FinishTime > mr.FinishTime {
			mr.FinishTime = r.FinishTime
		}
		finish[i] = uint64(r.FinishTime)
		latW += float64(r.MeanLatency) * float64(r.Transactions)
		hopW += r.MeanHops * float64(r.Transactions)
		mr.Energy.NetworkPJ += r.Energy.NetworkPJ
		mr.Energy.ReadPJ += r.Energy.ReadPJ
		mr.Energy.WritePJ += r.Energy.WritePJ
		mr.Transactions += r.Transactions
		mr.Reads += r.Reads
		mr.Writes += r.Writes
		mr.Events += r.Events
	}
	if mr.Transactions > 0 {
		mr.MeanLatency = sim.Time(latW / float64(mr.Transactions))
		mr.MeanHops = hopW / float64(mr.Transactions)
	}
	mr.Fairness = obs.Jain(finish)
	mr.Windows = par.Windows()
	for i, st := range par.ShardStats() {
		mr.Shards = append(mr.Shards, ShardLoad{
			Shard:          i,
			Events:         st.Events,
			Posts:          st.Posts,
			Merged:         st.Merged,
			MaxInbox:       st.MaxInbox,
			FinishPs:       int64(results[i].FinishTime),
			BarrierWaitPs:  int64(mr.FinishTime - results[i].FinishTime),
			LookaheadSlack: st.Slack,
		})
	}
	return mr, nil
}

// MachineManifest assembles the run manifest for a whole-machine run:
// reproduction inputs, the aggregate results, and the parallel-engine
// introspection record (per-shard load, barrier waits, lookahead-slack
// histograms, events-per-window).
func MachineManifest(mp MachineParams, mr MachineResults) *obs.Manifest {
	m := obs.NewManifest()
	m.Label = mp.Base.Label()
	m.Seed = int64(mp.Base.Seed)
	m.Workload = mp.Base.Workload.Name
	m.Config = mp.Base.Sys
	m.Results = mr
	rec := MachineRecord{
		Ports:   len(mr.Shards),
		Windows: mr.Windows,
		Shards:  mr.Shards,
	}
	if mr.Windows > 0 {
		rec.EventsPerWindow = float64(mr.Events) / float64(mr.Windows)
	}
	m.Machine = rec
	return m
}
