// Package trace provides a bounded in-memory event log of packet
// lifecycles — injection, per-node arrivals, memory service, and
// completion — for debugging simulations and for the mnsim -trace flag.
// The log is a ring buffer: it retains the most recent events at O(1)
// cost per event so tracing long runs stays cheap.
package trace

import (
	"fmt"
	"strings"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Op classifies a lifecycle event.
type Op uint8

const (
	// Inject: the host handed the request to its output link.
	Inject Op = iota
	// Arrive: the packet landed at a node's router.
	Arrive
	// MemStart: the destination vault accepted the request.
	MemStart
	// MemDone: the vault emitted the response.
	MemDone
	// Complete: the response reached the host.
	Complete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Inject:
		return "inject"
	case Arrive:
		return "arrive"
	case MemStart:
		return "mem-start"
	case MemDone:
		return "mem-done"
	case Complete:
		return "complete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Event is one recorded lifecycle step.
type Event struct {
	At   sim.Time
	Op   Op
	Node packet.NodeID
	// Port is the receiving component's input index: the router port for
	// Arrive and MemDone, the quadrant index for MemStart, and -1 at the
	// single-ported host (Inject, Complete).
	Port int8
	// VC is the virtual channel the packet travels on.
	VC   packet.VC
	ID   uint64
	Kind packet.Kind
	Addr uint64
}

// String renders one line, e.g.
// "12.5ns arrive    node=3  port=1/vc0 ReadReq#42 addr=0x1f400";
// hostside events (no input port) render port=-.
func (e Event) String() string {
	port := "-"
	if e.Port >= 0 {
		port = fmt.Sprintf("%d", e.Port)
	}
	return fmt.Sprintf("%-10v %-9s node=%-3d port=%s/vc%d %s#%d addr=%#x",
		e.At, e.Op, e.Node, port, e.VC, e.Kind, e.ID, e.Addr)
}

// Log is a fixed-capacity ring of events. The zero value is unusable;
// construct with NewLog.
type Log struct {
	buf   []Event
	next  int
	total uint64
}

// NewLog returns a log retaining the last capacity events.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Log{buf: make([]Event, 0, capacity)}
}

// Record appends an event, evicting the oldest when full.
func (l *Log) Record(e Event) {
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % cap(l.buf)
}

// Total reports how many events were ever recorded.
func (l *Log) Total() uint64 { return l.total }

// Events returns the retained events in chronological order.
func (l *Log) Events() []Event {
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// String renders the retained events one per line.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
