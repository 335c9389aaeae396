package ddr

import (
	"fmt"

	"memnet/internal/config"
	"memnet/internal/mem"
	"memnet/internal/sim"
	"memnet/internal/workload"
)

// ChannelSim is a queueing model of one conventional DDR channel: a
// single shared command/data bus in front of per-DIMM banks. It exists
// to quantify the paper's motivation (§2.1): as DIMMs are added the bus
// slows down, and the single multi-drop bus — unlike a memory network's
// point-to-point links — serializes every data transfer in the channel.
type ChannelSim struct {
	ch    Channel
	banks mem.Array
	bus   sim.Resource
	beat  sim.Time // data-bus occupancy per 64B access

	completed  uint64
	latencySum sim.Time
	finish     sim.Time
	busBusySum sim.Time
}

// NewChannelSim builds the model. banksPerDIMM is typically 16 for
// DDR4. DRAM array timings reuse the Table 2 DRAM parameters.
func NewChannelSim(ch Channel, banksPerDIMM int) (*ChannelSim, error) {
	bw, err := ch.BandwidthGBs()
	if err != nil {
		return nil, err
	}
	if banksPerDIMM <= 0 {
		return nil, fmt.Errorf("ddr: non-positive banks per DIMM")
	}
	timing := config.Default().DRAMTiming
	cs := &ChannelSim{
		ch:    ch,
		banks: mem.MakeArray(config.DRAM, timing, ch.DPC*banksPerDIMM, 0, 131*sim.Nanosecond),
	}
	// 64 bytes over the channel's peak bandwidth (bw is GB/s).
	cs.beat = sim.BitTime(64*8, int64(bw*8e9))
	return cs, nil
}

// Access services one 64B access arriving at time now and returns its
// completion time. The bank performs the array access; the shared bus
// then serializes the data transfer (this is the multi-drop bottleneck).
func (cs *ChannelSim) Access(now sim.Time, addr uint64, write bool) sim.Time {
	blk := addr / 64
	bank := int(blk % uint64(cs.banks.Len()))
	row := int64(blk / uint64(cs.banks.Len()) / 32) // 32 blocks per 2KB row
	kind := mem.Read
	if write {
		kind = mem.Write
	}
	ready := cs.banks.Access(bank, now, row, kind)
	start, end := cs.bus.Reserve(ready, cs.beat)
	_ = start
	cs.busBusySum += cs.beat
	cs.completed++
	cs.latencySum += end - now
	if end > cs.finish {
		cs.finish = end
	}
	return end
}

// Results summarizes a completed trace run.
type ChannelResults struct {
	Completed   uint64
	FinishTime  sim.Time
	MeanLatency sim.Time
	// BusUtilization is the fraction of the run the data bus was busy.
	BusUtilization float64
}

// RunTrace drives the channel with a workload generator for n
// transactions, respecting the trace's inter-arrival gaps (open loop:
// DDR channels have no windowed backpressure to the core in this model;
// latency growth under overload shows up directly).
func (cs *ChannelSim) RunTrace(gen workload.Generator, n uint64) ChannelResults {
	var now sim.Time
	for i := uint64(0); i < n; i++ {
		tx := gen.Next()
		now += tx.Gap
		cs.Access(now, tx.Addr%cs.ch.Capacity(), tx.Write)
	}
	res := ChannelResults{
		Completed:  cs.completed,
		FinishTime: cs.finish,
	}
	if cs.completed > 0 {
		res.MeanLatency = cs.latencySum / sim.Time(cs.completed)
	}
	if cs.finish > 0 {
		res.BusUtilization = float64(cs.busBusySum) / float64(cs.finish)
	}
	return res
}
