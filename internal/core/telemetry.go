package core

import (
	"fmt"

	"memnet/internal/link"
	"memnet/internal/obs"
	"memnet/internal/packet"
	"memnet/internal/topology"
)

// Telemetry is the instance's armed observability layer: the metrics
// registry, the interval sampler, and the hot-path instruments the run's
// observers feed (the end-to-end latency histogram, the per-cube service
// vector behind the Jain fairness series, and per-router grant counts).
//
// A nil *Telemetry is the disabled layer. The sampler's engine probe
// never perturbs event order, so Results are bit-identical either way
// (the golden tests pin this).
type Telemetry struct {
	Registry *obs.Registry
	Sampler  *obs.Sampler

	latency *obs.Histogram
	service []uint64   // completed transactions per cube, slot order
	svcIdx  []int32    // NodeID -> service slot, -1 for non-cubes
	grants  [][]uint64 // NodeID -> arbitration grants per input port
}

// buildTelemetry registers every metric against the fully wired
// instance, in deterministic graph order, and arms the interval
// sampler. Build's observe stage calls it after all ports exist.
func buildTelemetry(in *Instance, cfg *obs.Config) {
	reg := obs.NewRegistry()
	t := &Telemetry{Registry: reg}
	g := in.Graph
	eng := in.Eng

	// Host: in-flight window and injection progress.
	port := in.Port
	reg.Gauge("host.inflight", func() int64 { return int64(port.Inflight()) })
	reg.Gauge("host.injected", func() int64 { return int64(port.Injected()) })
	t.latency = reg.Histogram("host.latency_ps")

	// Per-cube service share: the host link's observer increments the
	// slice; the vec probe just exposes it.
	t.svcIdx = make([]int32, len(g.Nodes))
	var svcLabels []string
	for i := range t.svcIdx {
		t.svcIdx[i] = -1
	}
	for _, n := range g.Nodes {
		if n.Kind != topology.Cube {
			continue
		}
		t.svcIdx[n.ID] = int32(len(svcLabels))
		svcLabels = append(svcLabels, fmt.Sprintf("cube%d", n.ID))
	}
	t.service = make([]uint64, len(svcLabels))
	svc := t.service
	reg.Vec("cube.service", svcLabels, func() []uint64 { return svc })

	// Routers: occupancy, cumulative input wait, arbitration grants per
	// input port, counted by each router's observer.
	t.grants = make([][]uint64, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Kind == topology.Host {
			continue
		}
		r := in.routers[n.ID]
		prefix := fmt.Sprintf("node%d.router", n.ID)
		reg.Gauge(prefix+".occupancy", func() int64 {
			var occ int64
			for i := 0; i < r.NumPorts(); i++ {
				for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
					occ += int64(r.InputBuffer(i).Len(vc))
				}
			}
			return occ
		})
		reg.Gauge(prefix+".input_wait_ps", func() int64 {
			return int64(r.TotalInputWait())
		})
		grants := make([]uint64, r.NumPorts())
		t.grants[n.ID] = grants
		labels := make([]string, r.NumPorts())
		for i := range labels {
			labels[i] = fmt.Sprintf("p%d", i)
		}
		reg.Vec(prefix+".grants", labels, func() []uint64 { return grants })
	}

	// Vaults: window occupancy, queued work, and row-buffer locality,
	// aggregated across a cube's quadrants.
	for _, n := range g.Nodes {
		if n.Kind != topology.Cube {
			continue
		}
		quads := in.quadrants[n.ID]
		prefix := fmt.Sprintf("node%d.vault", n.ID)
		reg.Gauge(prefix+".inflight", func() int64 {
			var v int64
			for _, q := range quads {
				v += int64(q.Inflight())
			}
			return v
		})
		reg.Gauge(prefix+".queue", func() int64 {
			var v int64
			for _, q := range quads {
				v += int64(q.QueueLen())
			}
			return v
		})
		reg.Gauge(prefix+".row_hits", func() int64 {
			var v int64
			for _, q := range quads {
				v += int64(q.BankStats().RowHits)
			}
			return v
		})
		reg.Gauge(prefix+".row_misses", func() int64 {
			var v int64
			for _, q := range quads {
				bs := q.BankStats()
				v += int64(bs.RowMisses + bs.RowConflicts)
			}
			return v
		})
	}

	// External links: occupancy, credit stalls, retry traffic, and lane
	// state per direction, in edge-index order.
	for ei, pair := range in.dirs {
		for side, d := range pair {
			prefix := fmt.Sprintf("edge%d.%s", ei, [2]string{"ab", "ba"}[side])
			reg.Gauge(prefix+".busy_ps", func() int64 {
				return int64(d.Stats().BusyTime)
			})
			reg.Gauge(prefix+".credit_stalls", func() int64 {
				return int64(d.Stats().CreditStall)
			})
			reg.Gauge(prefix+".retries", func() int64 {
				return int64(d.Stats().Retries)
			})
			reg.Gauge(prefix+".retryq", func() int64 {
				return int64(d.RetryLen())
			})
			reg.Gauge(prefix+".bw_bps", func() int64 { return d.Bandwidth() })
			reg.Gauge(prefix+".dead", func() int64 {
				if d.Dead() {
					return 1
				}
				return 0
			})
			reg.Gauge(prefix+".state", func() int64 {
				return int64(d.State()) // 0 up, 1 down, 2 retraining
			})
			reg.Gauge(prefix+".healed_bits", func() int64 {
				return int64(d.HealedBits())
			})
		}
	}

	// Fabric availability: how much of the network is out of service or
	// recovering right now, and how much traffic has re-homed. The
	// probes read the same state the fault layer mutates, so the series
	// shows each outage opening and closing.
	dirs := in.dirs
	linksIn := func(s link.State) func() int64 {
		return func() int64 {
			var n int64
			for _, pair := range dirs {
				if pair[0].State() == s || pair[1].State() == s {
					n++
				}
			}
			return n
		}
	}
	reg.Gauge("fault.links_down", linksIn(link.Down))
	reg.Gauge("fault.links_retraining", linksIn(link.Retraining))
	reg.Gauge("fault.cubes_rehomed", func() int64 {
		var n int64
		for _, spare := range in.rehome {
			if spare >= 0 {
				n++
			}
		}
		return n
	})

	t.Sampler = reg.StartSampler(eng, cfg.Interval())
	in.Telemetry = t
}

// Manifest assembles the machine-readable run record: reproduction
// inputs (config, seed, workload), the Results, the per-node report,
// fault counters, the final metrics dump, and the sampler's fairness
// summary. Callable on any completed instance; without telemetry the
// metrics and fairness sections are simply absent.
func (in *Instance) Manifest(res Results) *obs.Manifest {
	m := obs.NewManifest()
	m.Label = in.Params.Label()
	m.Seed = int64(in.Params.Seed)
	m.Workload = in.Params.Workload.Name
	m.Config = in.Params.Sys
	m.Results = res
	m.Nodes = in.Report()
	if in.Params.Fault.Enabled() {
		m.Fault = res.Fault
		if tl := in.timeline(); tl != nil {
			m.Timeline = tl
		}
	}
	if t := in.Telemetry; t != nil {
		m.Metrics = t.Registry.Dump()
		m.Attach(t.Sampler)
	}
	return m
}
