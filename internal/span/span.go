// Package span implements deterministic causal tracing: one span tree
// per sampled transaction, decomposing end-to-end latency into the
// enumerated causes the paper's figure analyses argue about — host
// window wait, per-hop link queueing / credit stall, serialization,
// SerDes traversal, retry backoff, router arbitration wait, and vault
// queue + service time.
//
// The recorder is fed at existing event boundaries by the run's packet
// observers (host inject, router grant, link ship, vault issue, landing
// at the host); it never schedules events of its own, so Results
// stay bit-identical with tracing on or off. Sampling is a pure
// function of the transaction ID and the run seed — no RNG state — so
// the same transactions are sampled on every rerun and at every shard
// count.
package span

import (
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Schema versions the NDJSON span-file format. The first line of every
// span file is a header object carrying this string.
const Schema = "memnet/spans/v1"

// DefaultMaxSpans bounds retained spans when Config.MaxSpans is zero.
const DefaultMaxSpans = 1 << 16

// Config arms span tracing on a run. The zero value (a nil pointer in
// core.Params) disables tracing entirely.
type Config struct {
	// SampleStride samples one of every SampleStride transactions by ID,
	// phase-shifted by the run seed (ID % stride == seed % stride). Zero
	// or one samples every transaction.
	SampleStride uint64
	// MaxSpans caps the number of spans retained (live + completed);
	// transactions sampled past the cap are counted in Dropped. Zero
	// means DefaultMaxSpans.
	MaxSpans int
}

// Enabled reports whether the config arms tracing.
func (c *Config) Enabled() bool { return c != nil }

// Cause identifies one enumerated latency cause. The taxonomy covers a
// transaction's full path: host window wait, then per link traversal
// queue/retry/serialization/SerDes, router arbitration per hop, and
// vault queue + service at the destination.
type Cause uint8

const (
	// HostWindow is time between workload issue and network injection:
	// the host's outstanding-transaction window, coherence ordering, and
	// injection-port credit stalls.
	HostWindow Cause = iota
	// LinkQueue is time in a link direction's output queue, including
	// credit stalls waiting on the remote input buffer.
	LinkQueue
	// LinkRetry is retry-buffer residence: implicit-ack round trips plus
	// exponential backoff after CRC errors. Zero on fault-free links.
	LinkRetry
	// LinkSer is wire occupancy: bits / bandwidth.
	LinkSer
	// LinkSerDes is the fixed per-traversal SerDes latency.
	LinkSerDes
	// RouterArb is input-buffer residence at a router: arbitration wait
	// plus crossbar contention before the grant.
	RouterArb
	// VaultQueue is vault input-queue residence before bank issue.
	VaultQueue
	// VaultService is memory access time: bank service, row-hit or
	// row-miss timing, and any wrong-quadrant routing penalty.
	VaultService

	numCauses
)

// NumCauses is the number of enumerated causes.
const NumCauses = int(numCauses)

var causeNames = [NumCauses]string{
	"host.window", "link.queue", "link.retry", "link.ser",
	"link.serdes", "router.arb", "vault.queue", "vault.service",
}

// String returns the stable NDJSON name of the cause.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// CauseByName maps a stable NDJSON cause name back to its Cause, with
// ok=false for unknown names.
func CauseByName(name string) (Cause, bool) {
	for i, n := range causeNames {
		if n == name {
			return Cause(i), true
		}
	}
	return 0, false
}

// Seg is one attributed segment of a transaction's lifetime: Dur
// picoseconds starting at At, blamed on Cause at location Loc (an edge
// label like "1>2", a router "r3", a vault quadrant "v3.q1", or "host").
type Seg struct {
	Cause Cause     `json:"-"`
	Loc   string    `json:"l"`
	VC    packet.VC `json:"vc"`
	At    sim.Time  `json:"at"`
	Dur   sim.Time  `json:"d"`
}

// TxSpan is the completed span tree of one sampled transaction. Segs
// are ordered by start time (ties keep recording order).
type TxSpan struct {
	ID        uint64   `json:"id"`
	Kind      string   `json:"kind"` // request kind at injection
	Addr      uint64   `json:"addr"`
	Dst       int32    `json:"dst"`
	Injected  sim.Time `json:"inj"`
	Completed sim.Time `json:"done"`
	Segs      []Seg    `json:"segs"`
}

// Latency is the transaction's end-to-end network latency.
func (t *TxSpan) Latency() sim.Time { return t.Completed - t.Injected }

// slot is the in-flight recording state for one sampled transaction.
type slot struct {
	span      TxSpan
	vaultLoc  string
	vaultWait sim.Time
}

// Recorder collects spans for one run. All methods are safe on a nil
// receiver (tracing off) and on packets that were not sampled, so
// observers can call unconditionally from hot paths at the cost of one
// nil check and one field test.
type Recorder struct {
	stride uint64
	offset uint64
	max    int

	slots  []slot
	free   []int32
	active int

	spans   []TxSpan
	dropped uint64
}

// NewRecorder builds a recorder from cfg for a run with the given seed.
func NewRecorder(cfg Config, seed uint64) *Recorder {
	stride := cfg.SampleStride
	if stride == 0 {
		stride = 1
	}
	max := cfg.MaxSpans
	if max <= 0 {
		max = DefaultMaxSpans
	}
	return &Recorder{stride: stride, offset: seed % stride, max: max}
}

// Sampled reports whether transaction id falls on the sampling stride.
func (r *Recorder) Sampled(id uint64) bool {
	return r != nil && id%r.stride == r.offset
}

// Start begins a span for pk if its ID is sampled, recording wait
// picoseconds of host-window time ending at now (the injection
// instant). It stamps pk.SpanSlot so downstream observers recognize the
// packet; unsampled packets are left untouched.
func (r *Recorder) Start(pk *packet.Packet, now, wait sim.Time) {
	if r == nil || pk.ID%r.stride != r.offset {
		return
	}
	if len(r.spans)+r.active >= r.max {
		r.dropped++
		return
	}
	var idx int32
	if n := len(r.free); n > 0 {
		idx = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		r.slots = append(r.slots, slot{})
		idx = int32(len(r.slots) - 1)
	}
	r.active++
	s := &r.slots[idx]
	*s = slot{span: TxSpan{
		ID:       pk.ID,
		Kind:     pk.Kind.String(),
		Addr:     pk.Addr,
		Dst:      int32(pk.Dst),
		Injected: now,
		Segs:     s.span.Segs[:0], // the reused slot keeps its buffer
	}}
	if wait > 0 {
		s.span.Segs = append(s.span.Segs, Seg{
			Cause: HostWindow, Loc: "host", VC: packet.VCOf(pk.Kind),
			At: now - wait, Dur: wait,
		})
	}
	pk.SpanSlot = idx + 1
}

// Seg appends one attributed segment to pk's span. Zero- and
// negative-duration segments are skipped (the deterministic rule that
// keeps span files free of degenerate entries).
func (r *Recorder) Seg(pk *packet.Packet, cause Cause, loc string, at, dur sim.Time) {
	if r == nil || pk.SpanSlot == 0 || dur <= 0 {
		return
	}
	s := &r.slots[pk.SpanSlot-1]
	s.span.Segs = append(s.span.Segs, Seg{
		Cause: cause, Loc: loc, VC: packet.VCOf(pk.Kind), At: at, Dur: dur,
	})
}

// Ship records one full link traversal of pk on the edge labelled loc:
// output-queue residence [enq,pop), retry-buffer residence [pop,start)
// (zero unless the first transmission was corrupted), wire occupancy
// [start,end), and the fixed SerDes traversal [end,end+serdes).
func (r *Recorder) Ship(pk *packet.Packet, loc string, serdes, enq, pop, start, end sim.Time) {
	if r == nil || pk.SpanSlot == 0 {
		return
	}
	r.Seg(pk, LinkQueue, loc, enq, pop-enq)
	r.Seg(pk, LinkRetry, loc, pop, start-pop)
	r.Seg(pk, LinkSer, loc, start, end-start)
	r.Seg(pk, LinkSerDes, loc, end, serdes)
}

// VaultIssue records pk's vault-queue wait ending at now (the bank
// issue instant) and remembers the quadrant so Complete can synthesize
// the matching service segment from the packet's memory timestamps.
func (r *Recorder) VaultIssue(pk *packet.Packet, loc string, now, wait sim.Time) {
	if r == nil || pk.SpanSlot == 0 {
		return
	}
	s := &r.slots[pk.SpanSlot-1]
	s.vaultLoc = loc
	s.vaultWait = wait
	r.Seg(pk, VaultQueue, loc, now-wait, wait)
}

// Complete closes pk's span at now: the vault service segment is
// synthesized (MemLatency minus the recorded queue wait), segments are
// ordered by start time, and the span is retired to the completed list
// with its own exact-size copy of the segments (nil when there are
// none), so a completed span never aliases the slot buffer. The
// packet's span slot is released for reuse and keeps that buffer.
func (r *Recorder) Complete(pk *packet.Packet, now sim.Time) {
	if r == nil || pk.SpanSlot == 0 {
		return
	}
	idx := pk.SpanSlot - 1
	pk.SpanSlot = 0
	s := &r.slots[idx]
	if s.vaultLoc != "" {
		r.slots[idx].span.Segs = append(s.span.Segs, Seg{
			Cause: VaultService, Loc: s.vaultLoc, VC: packet.VCRequest,
			At: pk.ArrivedMem + s.vaultWait, Dur: pk.MemLatency - s.vaultWait,
		})
	}
	segs := s.span.Segs
	sortByAt(segs)
	sp := s.span
	sp.Completed = now
	sp.Segs = nil
	if len(segs) > 0 {
		sp.Segs = make([]Seg, len(segs))
		copy(sp.Segs, segs)
	}
	r.spans = append(r.spans, sp)
	*s = slot{span: TxSpan{Segs: segs[:0]}}
	r.free = append(r.free, idx)
	r.active--
}

// sortByAt orders segs by start time in place, keeping recording order
// among equal starts. Segments arrive nearly sorted (the vault service
// segment, synthesized last, is the main exception), so an insertion
// sort moves few elements and, unlike sort.SliceStable, allocates
// nothing.
func sortByAt(segs []Seg) {
	for i := 1; i < len(segs); i++ {
		x := segs[i]
		j := i
		for j > 0 && segs[j-1].At > x.At {
			segs[j] = segs[j-1]
			j--
		}
		segs[j] = x
	}
}

// Spans returns the completed spans in completion order.
func (r *Recorder) Spans() []TxSpan {
	if r == nil {
		return nil
	}
	return r.spans
}

// Dropped counts sampled transactions discarded at the MaxSpans cap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Stride returns the effective sampling stride.
func (r *Recorder) Stride() uint64 {
	if r == nil {
		return 0
	}
	return r.stride
}
