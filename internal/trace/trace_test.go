package trace

import (
	"strings"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

func ev(at sim.Time, id uint64) Event {
	return Event{At: at, Op: Arrive, Node: 3, Port: 1, VC: packet.VCRequest,
		ID: id, Kind: packet.ReadReq, Addr: 0x40}
}

func TestRingEviction(t *testing.T) {
	l := NewLog(4)
	for i := 1; i <= 10; i++ {
		l.Record(ev(sim.Time(i), uint64(i)))
	}
	if l.Total() != 10 {
		t.Fatalf("total %d", l.Total())
	}
	got := l.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d", len(got))
	}
	for i, e := range got {
		if e.ID != uint64(7+i) {
			t.Fatalf("event %d has ID %d, want %d (chronological tail)", i, e.ID, 7+i)
		}
	}
}

func TestUnderfill(t *testing.T) {
	l := NewLog(8)
	l.Record(ev(1, 1))
	l.Record(ev(2, 2))
	got := l.Events()
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("events %v", got)
	}
}

// TestWraparoundBoundary pins the ring at its two edge states: exactly
// full (no eviction yet, next still at 0) and one past full (a single
// eviction, so Events must rotate around the write cursor).
func TestWraparoundBoundary(t *testing.T) {
	l := NewLog(4)
	for i := 1; i <= 4; i++ {
		l.Record(ev(sim.Time(i), uint64(i)))
	}
	got := l.Events()
	if len(got) != 4 || got[0].ID != 1 || got[3].ID != 4 {
		t.Fatalf("exactly-full log misordered: %v", got)
	}
	l.Record(ev(5, 5)) // first eviction: drops 1, cursor now mid-buffer
	got = l.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d after first eviction", len(got))
	}
	for i, e := range got {
		if e.ID != uint64(2+i) {
			t.Fatalf("event %d has ID %d, want %d after single wrap", i, e.ID, 2+i)
		}
	}
	if l.Total() != 5 {
		t.Fatalf("total %d, want 5", l.Total())
	}
}

// TestMultiWrap: many full revolutions of the ring still yield the
// chronological tail, for capacities that do and do not divide the
// record count evenly (cursor ends both at 0 and mid-buffer).
func TestMultiWrap(t *testing.T) {
	for _, capacity := range []int{3, 4} {
		l := NewLog(capacity)
		const n = 12
		for i := 1; i <= n; i++ {
			l.Record(ev(sim.Time(i), uint64(i)))
		}
		got := l.Events()
		if len(got) != capacity {
			t.Fatalf("cap %d: retained %d", capacity, len(got))
		}
		for i, e := range got {
			want := uint64(n - capacity + 1 + i)
			if e.ID != want {
				t.Fatalf("cap %d: event %d has ID %d, want %d", capacity, i, e.ID, want)
			}
			if i > 0 && e.At < got[i-1].At {
				t.Fatalf("cap %d: events not chronological: %v", capacity, got)
			}
		}
	}
}

// TestPacketFilterAcrossWrap: one packet's events, filtered out of
// Events, stay chronological after the ring wraps through its lifecycle.
func TestPacketFilterAcrossWrap(t *testing.T) {
	l := NewLog(6)
	// Packet 9's lifecycle interleaved with filler; early records evict.
	for i := 0; i < 5; i++ {
		l.Record(ev(sim.Time(i), 100+uint64(i)))
	}
	l.Record(Event{At: 10, Op: Arrive, ID: 9})
	l.Record(ev(11, 200))
	l.Record(Event{At: 12, Op: MemStart, ID: 9})
	l.Record(Event{At: 13, Op: MemDone, ID: 9})
	var got []Event
	for _, e := range l.Events() {
		if e.ID == 9 {
			got = append(got, e)
		}
	}
	if len(got) != 3 {
		t.Fatalf("packet events %v", got)
	}
	for i, op := range []Op{Arrive, MemStart, MemDone} {
		if got[i].Op != op {
			t.Fatalf("packet event %d is %v, want %v", i, got[i].Op, op)
		}
	}
}

func TestStrings(t *testing.T) {
	for _, op := range []Op{Inject, Arrive, MemStart, MemDone, Complete} {
		if strings.Contains(op.String(), "op(") {
			t.Errorf("missing name for op %d", op)
		}
	}
	l := NewLog(2)
	l.Record(ev(1500, 9))
	s := l.String()
	for _, want := range []string{"arrive", "node=3", "port=1/vc0", "ReadReq#9", "0x40"} {
		if !strings.Contains(s, want) {
			t.Errorf("log string missing %q: %s", want, s)
		}
	}
	// Host-side events carry no input port and render port=-.
	l = NewLog(2)
	l.Record(Event{At: 1, Op: Complete, Node: 0, Port: -1,
		VC: packet.VCResponse, ID: 9, Kind: packet.ReadResp, Addr: 0x40})
	if s := l.String(); !strings.Contains(s, "port=-/vc1") {
		t.Errorf("host event port rendering: %s", s)
	}
}

func TestDefaultCapacity(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < 2000; i++ {
		l.Record(ev(sim.Time(i), uint64(i)))
	}
	if len(l.Events()) != 1024 {
		t.Fatalf("default capacity: %d", len(l.Events()))
	}
}
