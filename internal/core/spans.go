package core

import (
	"fmt"
	"io"

	"memnet/internal/fault"
	"memnet/internal/obs"
	"memnet/internal/span"
)

// WritePerfetto exports whichever of the lifecycle trace, sampled gauge
// series and causal spans the run armed as one Chrome/Perfetto
// trace-event JSON file (obs.WritePerfetto).
func (in *Instance) WritePerfetto(w io.Writer) error {
	var s *obs.Sampler
	if in.Telemetry != nil {
		s = in.Telemetry.Sampler
	}
	return obs.WritePerfetto(w, in.Trace, s, in.Spans.Spans())
}

// WriteSpans exports the instance's completed causal spans as NDJSON
// (schema memnet/spans/v1): one header line carrying the run identity
// and sampling parameters, then one line per sampled transaction. It is
// an error to call it on an instance built without Params.Spans.
func (in *Instance) WriteSpans(w io.Writer) error {
	if in.Spans == nil {
		return fmt.Errorf("core: WriteSpans on an instance without span tracing (set Params.Spans)")
	}
	hdr := span.Header{
		Label:    in.Params.Label(),
		Workload: in.Params.Workload.Name,
		Seed:     in.Params.Seed,
		Stride:   in.Spans.Stride(),
		Dropped:  in.Spans.Dropped(),
	}
	return span.Write(w, hdr, in.Spans.Spans())
}

// TimelineEvent is one entry of the manifest's recovery timeline: a
// scheduled fault or repair with, for link repairs, the retrain window
// bounds and the end-of-run healed-bits evidence that traffic actually
// routed back over the repaired edge. JSON tags match the run-manifest
// schema's timeline entries.
type TimelineEvent struct {
	// Kind is the fault.EventKind name (e.g. "kill_link", "repair_link").
	Kind string `json:"kind"`
	// AtPs is when the event takes effect; for link repairs this is the
	// link-up instant, after the retrain window.
	AtPs int64 `json:"at_ps"`
	// StartPs is when retraining began (link repairs only).
	StartPs *int64 `json:"start_ps,omitempty"`
	// Edge is the topology edge index (link and lane events).
	Edge *int `json:"edge,omitempty"`
	// Node is the cube node (cube events).
	Node *int `json:"node,omitempty"`
	// HealedBitsAB / HealedBitsBA are the bits each direction carried
	// after its first completed retraining, read at manifest time (link
	// repairs only).
	HealedBitsAB *uint64 `json:"healed_bits_ab,omitempty"`
	HealedBitsBA *uint64 `json:"healed_bits_ba,omitempty"`
}

// timeline renders the instance's validated fault plan as manifest
// timeline entries, annotating link repairs with their retrain window
// and the per-direction healed-bits counters.
func (in *Instance) timeline() []TimelineEvent {
	if len(in.plan) == 0 {
		return nil
	}
	out := make([]TimelineEvent, 0, len(in.plan))
	for _, pf := range in.plan {
		te := TimelineEvent{Kind: pf.Kind.String(), AtPs: int64(pf.At)}
		switch pf.Kind {
		case fault.EvKillCube, fault.EvRepairCube:
			node := int(pf.Node)
			te.Node = &node
		default:
			edge := pf.Edge
			te.Edge = &edge
		}
		if pf.Kind == fault.EvRepairLink {
			start := int64(pf.Start)
			te.StartPs = &start
			if pf.Edge >= 0 && pf.Edge < len(in.dirs) {
				var healed [2]uint64
				for side, d := range in.dirs[pf.Edge] {
					healed[side] = d.HealedBits()
				}
				te.HealedBitsAB, te.HealedBitsBA = &healed[0], &healed[1]
			}
		}
		out = append(out, te)
	}
	return out
}
