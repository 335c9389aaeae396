package span

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// mkPacket returns a sampled request packet for recorder tests.
func mkPacket(id uint64) *packet.Packet {
	return &packet.Packet{ID: id, Kind: packet.ReadReq, Addr: 0x1000 * id, Dst: 3}
}

// record drives one transaction through the full hook sequence and
// returns the completed span.
func record(t *testing.T, r *Recorder, id uint64) TxSpan {
	t.Helper()
	pk := mkPacket(id)
	r.Start(pk, 100, 40)                     // host.window [60,100)
	r.Ship(pk, "h>1", 5, 100, 110, 115, 130) // queue 10, retry 5, ser 15, serdes 5
	r.Seg(pk, RouterArb, "r1", 135, 8)       // arbitration 8
	pk.ArrivedMem, pk.MemLatency = 143, 30   // vault window [143,173)
	r.VaultIssue(pk, "v3.q0", 155, 12)       // queue [143,155), service [155,173)
	before := len(r.Spans())
	r.Complete(pk, 173)
	spans := r.Spans()
	if len(spans) != before+1 {
		t.Fatalf("Complete retired %d spans, want 1", len(spans)-before)
	}
	if pk.SpanSlot != 0 {
		t.Fatalf("Complete left SpanSlot %d", pk.SpanSlot)
	}
	return spans[len(spans)-1]
}

func TestRecorderFullLifecycle(t *testing.T) {
	r := NewRecorder(Config{}, 1)
	sp := record(t, r, 9)
	if sp.ID != 9 || sp.Kind != "ReadReq" || sp.Dst != 3 || sp.Injected != 100 || sp.Completed != 173 {
		t.Fatalf("span identity wrong: %+v", sp)
	}
	want := []Seg{
		{HostWindow, "host", packet.VCRequest, 60, 40},
		{LinkQueue, "h>1", packet.VCRequest, 100, 10},
		{LinkRetry, "h>1", packet.VCRequest, 110, 5},
		{LinkSer, "h>1", packet.VCRequest, 115, 15},
		{LinkSerDes, "h>1", packet.VCRequest, 130, 5},
		{RouterArb, "r1", packet.VCRequest, 135, 8},
		{VaultQueue, "v3.q0", packet.VCRequest, 143, 12},
		{VaultService, "v3.q0", packet.VCRequest, 155, 18},
	}
	if len(sp.Segs) != len(want) {
		t.Fatalf("got %d segs %+v, want %d", len(sp.Segs), sp.Segs, len(want))
	}
	for i, sg := range sp.Segs {
		if sg != want[i] {
			t.Errorf("seg %d = %+v, want %+v", i, sg, want[i])
		}
	}
	// The non-window segments tile the end-to-end latency exactly: this
	// is what makes 100% attribution possible.
	var attributed sim.Time
	for _, sg := range sp.Segs {
		if sg.Cause != HostWindow {
			attributed += sg.Dur
		}
	}
	if attributed != sp.Latency() {
		t.Errorf("segments sum to %v, latency is %v", attributed, sp.Latency())
	}
	if err := Check([]TxSpan{sp}); err != nil {
		t.Errorf("lifecycle span fails Check: %v", err)
	}
}

// TestRecorderSampling: the stride sampler selects exactly the IDs
// congruent to seed mod stride, and unsampled packets pass through the
// hooks untouched.
func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(Config{SampleStride: 4}, 6)
	for id := uint64(0); id < 16; id++ {
		pk := mkPacket(id)
		r.Start(pk, 100, 10)
		if want := id%4 == 2; (pk.SpanSlot != 0) != want {
			t.Fatalf("id %d: SpanSlot %d, want sampled=%v", id, pk.SpanSlot, want)
		}
		if pk.SpanSlot != 0 {
			r.Complete(pk, 200)
		}
	}
	if n := len(r.Spans()); n != 4 {
		t.Fatalf("sampled %d of 16 at stride 4, want 4", n)
	}
	// Hooks on an unsampled packet are no-ops.
	pk := mkPacket(1)
	r.Ship(pk, "h>1", 5, 0, 1, 2, 3)
	r.Seg(pk, RouterArb, "r1", 0, 5)
	r.Complete(pk, 99)
	if n := len(r.Spans()); n != 4 {
		t.Fatalf("unsampled packet produced a span (%d total)", n)
	}
}

// TestRecorderNilSafe: every hook is callable on a nil recorder.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	pk := mkPacket(1)
	if r.Sampled(1) {
		t.Error("nil recorder sampled a packet")
	}
	r.Start(pk, 10, 5)
	r.Ship(pk, "h>1", 5, 0, 1, 2, 3)
	r.Seg(pk, RouterArb, "r1", 0, 5)
	r.VaultIssue(pk, "v0.q0", 7, 2)
	r.Complete(pk, 20)
	if r.Spans() != nil || r.Dropped() != 0 || r.Stride() != 0 {
		t.Error("nil recorder accumulated state")
	}
}

// TestRecorderCap: sampled transactions past MaxSpans are dropped and
// counted; completing a span frees its slot for reuse.
func TestRecorderCap(t *testing.T) {
	r := NewRecorder(Config{MaxSpans: 2}, 0)
	a, b, c := mkPacket(1), mkPacket(2), mkPacket(3)
	r.Start(a, 10, 0)
	r.Start(b, 10, 0)
	r.Start(c, 10, 0) // over cap
	if c.SpanSlot != 0 || r.Dropped() != 1 {
		t.Fatalf("cap not enforced: slot %d, dropped %d", c.SpanSlot, r.Dropped())
	}
	r.Complete(a, 20)
	r.Complete(b, 20)
	// Cap counts completed + live spans, so a full recorder stays full.
	d := mkPacket(4)
	r.Start(d, 30, 0)
	if d.SpanSlot != 0 || r.Dropped() != 2 {
		t.Fatalf("cap ignored retired spans: slot %d, dropped %d", d.SpanSlot, r.Dropped())
	}
}

// TestRecorderZeroDurSegsSkipped: zero- and negative-duration segments
// never enter the span (Ship emits link.retry only when the packet
// actually waited in the retry buffer).
func TestRecorderZeroDurSegsSkipped(t *testing.T) {
	r := NewRecorder(Config{}, 0)
	pk := mkPacket(1)
	r.Start(pk, 100, 0)                      // no window wait: no host segment
	r.Ship(pk, "h>1", 5, 100, 100, 100, 120) // queue 0, retry 0, ser 20
	r.Complete(pk, 130)
	sp := r.Spans()[0]
	if len(sp.Segs) != 2 {
		t.Fatalf("got segs %+v, want [link.ser link.serdes]", sp.Segs)
	}
	if sp.Segs[0].Cause != LinkSer || sp.Segs[1].Cause != LinkSerDes {
		t.Fatalf("got segs %+v, want [link.ser link.serdes]", sp.Segs)
	}
}

func TestCauseNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < NumCauses; c++ {
		name := Cause(c).String()
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("cause %d has bad or duplicate name %q", c, name)
		}
		seen[name] = true
		back, ok := CauseByName(name)
		if !ok || back != Cause(c) {
			t.Fatalf("CauseByName(%q) = %v,%v", name, back, ok)
		}
	}
	if _, ok := CauseByName("no.such.cause"); ok {
		t.Error("CauseByName accepted an unknown name")
	}
}

// TestNDJSONRoundTrip: Write then Read reproduces header and spans, and
// a rewrite of the parsed spans is byte-identical (the determinism the
// golden tests lean on).
func TestNDJSONRoundTrip(t *testing.T) {
	r := NewRecorder(Config{SampleStride: 2}, 4)
	record(t, r, 10)
	record(t, r, 12)
	hdr := Header{Label: "chain-100", Workload: "KMEANS", Seed: 4, Stride: 2}
	var buf bytes.Buffer
	if err := Write(&buf, hdr, r.Spans()); err != nil {
		t.Fatal(err)
	}
	gotHdr, spans, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr.Schema != Schema || gotHdr.Label != "chain-100" || gotHdr.Spans != 2 {
		t.Fatalf("header round-trip: %+v", gotHdr)
	}
	if len(spans) != 2 || spans[0].ID != 10 || spans[1].ID != 12 {
		t.Fatalf("spans round-trip: %+v", spans)
	}
	for i := range spans {
		if len(spans[i].Segs) != len(r.Spans()[i].Segs) {
			t.Fatalf("span %d lost segments: %+v", i, spans[i])
		}
		for j, sg := range spans[i].Segs {
			if sg != r.Spans()[i].Segs[j] {
				t.Errorf("span %d seg %d = %+v, want %+v", i, j, sg, r.Spans()[i].Segs[j])
			}
		}
	}
	var again bytes.Buffer
	if err := Write(&again, gotHdr, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("write-read-write is not byte-stable")
	}
}

// TestNDJSONMultiBlock: concatenated span files (one header per block,
// the mnexp -spans-out layout) parse as one merged set under the first
// header.
func TestNDJSONMultiBlock(t *testing.T) {
	r := NewRecorder(Config{}, 0)
	record(t, r, 1)
	var a, b bytes.Buffer
	if err := Write(&a, Header{Label: "run-a"}, r.Spans()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, Header{Label: "run-b"}, r.Spans()); err != nil {
		t.Fatal(err)
	}
	hdr, spans, err := Read(strings.NewReader(a.String() + b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Label != "run-a" || len(spans) != 2 {
		t.Fatalf("multi-block read: hdr %+v, %d spans", hdr, len(spans))
	}
}

// TestNDJSONEmptyRun: a run that sampled nothing still writes a valid
// header-only file, and analysis of it is well-defined.
func TestNDJSONEmptyRun(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{Label: "idle", Stride: 64}, nil); err != nil {
		t.Fatal(err)
	}
	hdr, spans, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Spans != 0 || len(spans) != 0 {
		t.Fatalf("empty run: hdr %+v, %d spans", hdr, len(spans))
	}
	a := Analyze(spans)
	if a.Attribution() != 1 || a.MeanLatencyPs() != 0 {
		t.Errorf("empty analysis: attribution %v, mean %v", a.Attribution(), a.MeanLatencyPs())
	}
	if err := Check(spans); err != nil {
		t.Errorf("empty span set fails Check: %v", err)
	}
}

// TestNDJSONRejectsBadInput: missing header, wrong schema, and unknown
// cause names are parse errors, not silent data loss.
func TestNDJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty file":    "",
		"no header":     `{"id":1,"kind":"ReadReq","addr":0,"dst":1,"inj":1,"done":2,"segs":[]}`,
		"wrong schema":  `{"schema":"memnet/spans/v999","spans":0}`,
		"unknown cause": "{\"schema\":\"memnet/spans/v1\",\"spans\":1}\n" + `{"id":1,"kind":"ReadReq","addr":0,"dst":1,"inj":1,"done":9,"segs":[{"c":"warp.drive","l":"h>1","vc":0,"at":1,"d":2}]}`,
	}
	for name, in := range cases {
		if _, _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted malformed input", name)
		}
	}
}

// TestAnalyze: per-cause totals, host-window separation, and the
// location blame table ordering.
func TestAnalyze(t *testing.T) {
	r := NewRecorder(Config{}, 0)
	record(t, r, 1)
	record(t, r, 2)
	a := Analyze(r.Spans())
	if a.Spans != 2 || a.TotalPs != 2*73 {
		t.Fatalf("analysis totals: %+v", a)
	}
	if a.WindowPs != 2*40 || a.ByCause[HostWindow] != 2*40 {
		t.Errorf("window time: got %d / %d, want 80", a.WindowPs, a.ByCause[HostWindow])
	}
	if a.AttributedPs != a.TotalPs {
		t.Errorf("attributed %d != total %d on tiled spans", a.AttributedPs, a.TotalPs)
	}
	if a.Attribution() != 1 {
		t.Errorf("attribution %v, want 1", a.Attribution())
	}
	// Blame: h>1 (10+5+15+5=35/tx) > v3.q0 (30/tx) > r1 (8/tx); host is
	// excluded from the table entirely.
	wantLocs := []string{"h>1", "v3.q0", "r1"}
	if len(a.Locs) != len(wantLocs) {
		t.Fatalf("blame table %+v, want locs %v", a.Locs, wantLocs)
	}
	for i, want := range wantLocs {
		if a.Locs[i].Loc != want {
			t.Errorf("blame[%d] = %s, want %s", i, a.Locs[i].Loc, want)
		}
	}
	if a.Locs[0].Total != 2*35 || a.Locs[0].ByCause[LinkSer] != 2*15 {
		t.Errorf("h>1 blame: %+v", a.Locs[0])
	}
}

func TestWorstN(t *testing.T) {
	spans := []TxSpan{
		{ID: 1, Injected: 0, Completed: 50},
		{ID: 2, Injected: 0, Completed: 90},
		{ID: 3, Injected: 0, Completed: 90},
		{ID: 4, Injected: 0, Completed: 10},
	}
	worst := WorstN(spans, 3)
	if len(worst) != 3 || worst[0].ID != 2 || worst[1].ID != 3 || worst[2].ID != 1 {
		t.Fatalf("WorstN order: %+v", worst)
	}
	if got := WorstN(spans, 10); len(got) != 4 {
		t.Fatalf("WorstN over-request returned %d", len(got))
	}
}

func TestCheckViolations(t *testing.T) {
	good := Seg{Cause: LinkSer, Loc: "h>1", At: 10, Dur: 5}
	cases := map[string]TxSpan{
		"negative window": {ID: 1, Injected: 100, Completed: 50},
		"zero-dur seg":    {ID: 1, Completed: 50, Segs: []Seg{{Cause: LinkSer, Loc: "h>1", At: 10}}},
		"out of order":    {ID: 1, Completed: 50, Segs: []Seg{good, {Cause: RouterArb, Loc: "r1", At: 5, Dur: 2}}},
		"past completion": {ID: 1, Completed: 12, Segs: []Seg{good}},
	}
	for name, sp := range cases {
		if err := Check([]TxSpan{sp}); err == nil {
			t.Errorf("%s: Check accepted invalid span", name)
		}
	}
}

// TestRecorderSortMatchesSliceStable: the recorder's in-place sort
// gives sort.SliceStable's order on random segment lists dense with
// equal start times.
func TestRecorderSortMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10000; trial++ {
		segs := make([]Seg, rng.Intn(24))
		for i := range segs {
			segs[i] = Seg{Cause: Cause(i % NumCauses), Loc: "r1", At: sim.Time(rng.Intn(6)), Dur: sim.Time(i + 1)}
		}
		want := make([]Seg, len(segs))
		copy(want, segs)
		sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
		sortByAt(segs)
		if !reflect.DeepEqual(segs, want) {
			t.Fatalf("trial %d: got %+v, want %+v", trial, segs, want)
		}
	}
}

// TestRecorderSpanOwnsSegs: a completed span keeps its segments when
// its slot is reused, and a span with no segments has nil Segs.
func TestRecorderSpanOwnsSegs(t *testing.T) {
	r := NewRecorder(Config{}, 0)
	first := record(t, r, 1)
	kept := append([]Seg(nil), first.Segs...)
	if cap(first.Segs) != len(first.Segs) {
		t.Errorf("completed span holds %d segs in a %d-cap slice, want exact size", len(first.Segs), cap(first.Segs))
	}
	pk := mkPacket(2)
	r.Start(pk, 500, 7)
	r.Ship(pk, "9>8", 1, 500, 600, 700, 800)
	r.Complete(pk, 900)
	if !reflect.DeepEqual(r.Spans()[0].Segs, kept) {
		t.Fatalf("slot reuse rewrote a completed span: %+v, want %+v", r.Spans()[0].Segs, kept)
	}
	bare := mkPacket(3)
	r.Start(bare, 1000, 0)
	r.Complete(bare, 1000)
	if sp := r.Spans()[2]; sp.Segs != nil {
		t.Errorf("span without segments has Segs %#v, want nil", sp.Segs)
	}
}
