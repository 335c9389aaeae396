package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"memnet/internal/core"
	"memnet/internal/fnv"
	"memnet/internal/obs"
	"memnet/internal/span"
)

// passMode selects how a pass runs its simulations.
type passMode int

const (
	// modeTimed runs the workload as its users run it.
	modeTimed passMode = iota
	// modeUnobserved runs the same simulations with telemetry, spans
	// and the lifecycle trace off.
	modeUnobserved
	// modeCounted runs them observed and folds their sim-time counts.
	modeCounted
)

// runRec is one simulation run as the closed loop saw it.
type runRec struct {
	ms     float64
	txns   uint64
	events uint64
}

// runOut is what one simulation run hands back to its pass.
type runOut struct {
	res      core.Results
	dur      time.Duration
	spans    []byte // span NDJSON, observed runs only
	manifest []byte // run manifest JSON, observed runs only
}

// passOut is one pass over a workload's run list.
type passOut struct {
	wall time.Duration
	runs []runRec
	// results holds every run's Results in run order; its digest is the
	// workload's output fingerprint.
	results   []core.Results
	attempted int
	failed    int
	errs      []string
	// shardEvents is the per-shard event count of a partitioned machine
	// run (nil for single-engine workloads).
	shardEvents []uint64
}

func (p *passOut) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// digest is FNV-1a over every run's Results, in run order.
func (p *passOut) digest() uint64 { return digestResults(p.results) }

func digestResults(rs []core.Results) uint64 {
	h := fnv.New()
	for i := range rs {
		h = h.Str(fmt.Sprintf("%#v", rs[i]))
	}
	return h.Sum()
}

// checkRun enforces the invariants every completed run must hold.
func checkRun(p core.Params, r core.Results) error {
	if r.Transactions != p.Transactions {
		return fmt.Errorf("%s/%s: %d of %d transactions completed", p.Label(), p.Workload.Name, r.Transactions, p.Transactions)
	}
	if r.Reads+r.Writes != r.Transactions {
		return fmt.Errorf("%s/%s: %d reads + %d writes != %d transactions", p.Label(), p.Workload.Name, r.Reads, r.Writes, r.Transactions)
	}
	return nil
}

// layerCounts accumulates the exact sim-time counts of a counted pass.
type layerCounts struct {
	mu                      sync.Mutex
	txns                    uint64
	forwarded, contended    uint64
	rowHits, rowAccesses    uint64
	retries, creditStalls   uint64
	windowPs, latencyPs     int64
	spanWriteMs, manifestMs []float64
}

// add folds one completed, observed instance into the counts.
func (c *layerCounts) add(in *core.Instance, res core.Results, writeMs, manifestMs float64) {
	var fwd, cont, hits, acc, stalls uint64
	for _, nr := range in.Report() {
		fwd += nr.Forwarded
		cont += nr.Contended
		hits += nr.Banks.RowHits
		acc += nr.Banks.RowHits + nr.Banks.RowMisses + nr.Banks.RowConflicts
	}
	if in.Telemetry != nil {
		for _, g := range in.Telemetry.Registry.Dump().Gauges {
			if strings.HasSuffix(g.Name, ".credit_stalls") {
				stalls += uint64(g.Value)
			}
		}
	}
	var win, lat int64
	if in.Spans != nil {
		a := span.Analyze(in.Spans.Spans())
		win, lat = a.WindowPs, a.TotalPs
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.txns += res.Transactions
	c.forwarded += fwd
	c.contended += cont
	c.rowHits += hits
	c.rowAccesses += acc
	c.retries += res.Fault.Retries
	c.creditStalls += stalls
	c.windowPs += win
	c.latencyPs += lat
	if writeMs > 0 {
		c.spanWriteMs = append(c.spanWriteMs, writeMs)
	}
	if manifestMs > 0 {
		c.manifestMs = append(c.manifestMs, manifestMs)
	}
}

// observe arms telemetry and span tracing on a copy of p.
func observe(p core.Params) core.Params {
	p.Obs = &obs.Config{Enabled: true}
	p.Spans = &span.Config{SampleStride: spanStride}
	return p
}

// spanStride samples one transaction in spanStride for span tracing.
const spanStride = 16

// runOne builds p, runs it and, when p is observed, serializes its spans
// and manifest the way an observed user run does. Each public call is
// recorded as a child of one "run" span under parent. When c is non-nil
// the run's sim-time counts are folded into c.
func runOne(p core.Params, tr *tracer, parent int64, c *layerCounts) (out runOut, err error) {
	id, start := tr.begin()
	defer func() { out.dur = tr.end(id, parent, "run", start) }()

	cid, cs := tr.begin()
	in, err := core.Build(p)
	tr.end(cid, id, "core.Build", cs)
	if err != nil {
		return out, fmt.Errorf("%s/%s: build: %w", p.Label(), p.Workload.Name, err)
	}
	cid, cs = tr.begin()
	out.res, err = in.Run()
	tr.end(cid, id, "Instance.Run", cs)
	if err != nil {
		return out, err
	}
	var writeMs, manifestMs float64
	if p.Spans.Enabled() {
		var buf bytes.Buffer
		cid, cs = tr.begin()
		err = in.WriteSpans(&buf)
		writeMs = ms(tr.end(cid, id, "WriteSpans", cs))
		if err != nil {
			return out, fmt.Errorf("%s/%s: write spans: %w", p.Label(), p.Workload.Name, err)
		}
		out.spans = buf.Bytes()
	}
	if p.Obs.On() {
		var buf bytes.Buffer
		cid, cs = tr.begin()
		err = in.Manifest(out.res).Encode(&buf)
		manifestMs = ms(tr.end(cid, id, "Manifest", cs))
		if err != nil {
			return out, fmt.Errorf("%s/%s: manifest: %w", p.Label(), p.Workload.Name, err)
		}
		out.manifest = buf.Bytes()
	}
	if c != nil {
		c.add(in, out.res, writeMs, manifestMs)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
