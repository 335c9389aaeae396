package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"memnet/internal/sim"
	"memnet/internal/span"
	"memnet/internal/trace"
)

// Perfetto / Chrome trace-event export.
//
// Packet lifecycles from the trace ring become nestable async slices
// (one track per packet ID: "b" at injection, "n" instants at each
// node, "e" at completion), and the sampler's gauge series become
// counter ("C") tracks, so per-node occupancy, credit stalls, and link
// state are plottable next to the packets that caused them. The output
// loads directly in https://ui.perfetto.dev or chrome://tracing.
//
// Chrome's JSON wants timestamps in microseconds; sim time is integer
// picoseconds, so ts values are exact multiples of 1e-6 and the export
// is byte-deterministic for a deterministic run (the golden-file test
// pins this).

// pfEvent is one trace event in Chrome trace-event JSON form.
type pfEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// tsOf converts sim time (ps) to Chrome trace microseconds.
func tsOf(t sim.Time) float64 { return float64(t) / 1e6 }

// packet-track process IDs: packets render under pid 1, counters under
// pid 2, causal spans under pid 3, so the groups stay separate in the
// UI.
const (
	pfPidPackets  = 1
	pfPidCounters = 2
	pfPidSpans    = 3
)

// phaseOf maps a lifecycle op to its async phase.
func phaseOf(op trace.Op) string {
	switch op {
	case trace.Inject:
		return "b"
	case trace.Complete:
		return "e"
	default:
		return "n"
	}
}

// WritePerfetto exports the packet lifecycle events of log, the gauge
// series of s and the causal spans (each may be nil) as Chrome
// trace-event JSON, in that stable order: events chronologically, counter
// rows tick by tick, spans in completion order. A span renders as one
// whole-lifetime slice on its own track, one nested "X" slice per
// segment, and flow arrows ("s"/"f", bp:"e") along the critical path.
func WritePerfetto(w io.Writer, log *trace.Log, s *Sampler, spans []span.TxSpan) error {
	bw := &errWriter{w: w}
	bw.puts("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func(ev pfEvent) {
		raw, err := json.Marshal(ev)
		if err != nil {
			bw.err = err
			return
		}
		if !first {
			bw.puts(",\n")
		}
		first = false
		bw.put(raw)
	}
	if log != nil {
		for _, e := range log.Events() {
			ev := pfEvent{
				Cat: "packet",
				Ph:  phaseOf(e.Op),
				Ts:  tsOf(e.At),
				Pid: pfPidPackets,
				ID:  fmt.Sprintf("%#x", e.ID),
			}
			switch ev.Ph {
			case "b", "e":
				ev.Name = fmt.Sprintf("tx %d", e.ID)
			default:
				ev.Name = fmt.Sprintf("%s@%d", e.Op, e.Node)
			}
			ev.Args = map[string]any{
				"node": int64(e.Node),
				"kind": e.Kind.String(),
				"addr": fmt.Sprintf("%#x", e.Addr),
			}
			emit(ev)
		}
	}
	if s != nil {
		for row, t := range s.times {
			for i := range s.gauges {
				emit(pfEvent{
					Name: s.gauges[i].name,
					Ph:   "C",
					Ts:   tsOf(t),
					Pid:  pfPidCounters,
					Args: map[string]any{"value": s.series[i][row]},
				})
			}
		}
	}
	for _, tx := range spans {
		tid := int64(tx.ID)
		emit(pfEvent{
			Name: fmt.Sprintf("tx %d", tx.ID),
			Cat:  "span",
			Ph:   "X",
			Ts:   tsOf(tx.Injected),
			Dur:  tsOf(tx.Latency()),
			Pid:  pfPidSpans,
			Tid:  tid,
			Args: map[string]any{
				"kind": tx.Kind,
				"addr": fmt.Sprintf("%#x", tx.Addr),
				"dst":  int64(tx.Dst),
			},
		})
		for k, sg := range tx.Segs {
			emit(pfEvent{
				Name: sg.Cause.String(),
				Cat:  "span",
				Ph:   "X",
				Ts:   tsOf(sg.At),
				Dur:  tsOf(sg.Dur),
				Pid:  pfPidSpans,
				Tid:  tid,
				Args: map[string]any{"loc": sg.Loc, "vc": int64(sg.VC)},
			})
			if k == 0 {
				continue
			}
			// Flow arrow from the previous segment's slice to this one.
			flowID := fmt.Sprintf("%#x.%d", tx.ID, k)
			prev := tx.Segs[k-1]
			emit(pfEvent{
				Name: "critical path", Cat: "span.flow", Ph: "s",
				Ts: tsOf(prev.At), Pid: pfPidSpans, Tid: tid, ID: flowID,
			})
			emit(pfEvent{
				Name: "critical path", Cat: "span.flow", Ph: "f", BP: "e",
				Ts: tsOf(sg.At), Pid: pfPidSpans, Tid: tid, ID: flowID,
			})
		}
	}
	bw.puts("\n]}\n")
	return bw.err
}

// errWriter is a sticky-error writer shell.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) put(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *errWriter) puts(s string) { e.put([]byte(s)) }
