package core

import (
	"fmt"

	"memnet/internal/energy"
	"memnet/internal/obs"
	"memnet/internal/pool"
	"memnet/internal/sim"
)

// portSeedStride decorrelates per-port workload streams. Port 0 keeps
// the base seed, so a machine run's first port reproduces the
// single-port simulation bit for bit (pinned by tests).
const portSeedStride = 0x9e3779b97f4a7c15

// MachineParams configures a whole-machine run: the full processor with
// Base.Sys.Ports host ports, each driving its own disjoint memory
// network (§2.3 — ports do not share cubes, so the machine splits
// exactly along port boundaries). Base holds the per-port simulation
// parameters; per-port seeds are derived from Base.Seed so ports are
// statistically independent but the whole run stays reproducible.
type MachineParams struct {
	Base Params
	// Shards is the number of pool workers running ports (<= 0 means
	// 1; clamped to the port count). Results are bit-identical for
	// every value.
	Shards int
}

// ShardLoad is one port's load record. JSON tags match the
// run-manifest schema's machine.shards entries.
type ShardLoad struct {
	// Shard is the port index.
	Shard int `json:"shard"`
	// Events counts events fired on the port's engine.
	Events uint64 `json:"events"`
	// FinishPs is the port's finish time, in picoseconds.
	FinishPs int64 `json:"finish_ps"`
	// BarrierWaitPs is how long the port idled waiting for the rest of
	// the machine: the machine finish time minus the port's own.
	BarrierWaitPs int64 `json:"barrier_wait_ps"`
}

// MachineRecord is the manifest's per-port load block.
type MachineRecord struct {
	// Ports is the number of host ports.
	Ports int `json:"ports"`
	// Shards holds the per-port load records, in port order.
	Shards []ShardLoad `json:"shards"`
}

// MachineResults aggregates a whole-machine run.
type MachineResults struct {
	// PerPort holds each port's full Results, index = port.
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
	// Shards holds the per-port load records, in port order.
	Shards []ShardLoad
}

// RunMachine builds and runs one simulation per host port, each on its
// own engine, over MachineParams.Shards workers of the pool.ForEach run
// pool. The port networks are disjoint, so the ports never interact
// and results are bit-identical at every worker count. When ports
// fail, the lowest failing port's error is returned.
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
	workers := mp.Shards
	if workers <= 0 {
		workers = 1
	}

	results := make([]Results, ports)
	err := pool.ForEach(workers, ports, func(i int) error {
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
		inst, err := Build(p)
		if err == nil {
			results[i], err = inst.Run()
		}
		if err != nil {
			return fmt.Errorf("core: machine: port %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return MachineResults{}, err
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
	for i, r := range results {
		mr.Shards = append(mr.Shards, ShardLoad{
			Shard:         i,
			Events:        r.Events,
			FinishPs:      int64(r.FinishTime),
			BarrierWaitPs: int64(mr.FinishTime - r.FinishTime),
		})
	}
	return mr, nil
}

// MachineManifest assembles the run manifest for a whole-machine run:
// reproduction inputs, the aggregate results, and the per-port load
// record (events, finish time and barrier wait of every port).
func MachineManifest(mp MachineParams, mr MachineResults) *obs.Manifest {
	m := obs.NewManifest()
	m.Label = mp.Base.Label()
	m.Seed = int64(mp.Base.Seed)
	m.Workload = mp.Base.Workload.Name
	m.Config = mp.Base.Sys
	m.Results = mr
	m.Machine = MachineRecord{Ports: len(mr.Shards), Shards: mr.Shards}
	return m
}
