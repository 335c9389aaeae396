package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// hostSpan is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Spans of one benchmark run share
// the tracer; Parent links a call to the span that made it (0 = root).
type hostSpan struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps host spans in memory until the benchmark ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []hostSpan
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID and start time; the caller
// passes both to end. On a nil tracer it returns ID 0.
func (t *tracer) begin() (int64, time.Time) {
	now := time.Now()
	if t == nil {
		return 0, now
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, now
}

// end records the span opened by begin and returns its duration.
func (t *tracer) end(id, parent int64, name string, start time.Time) time.Duration {
	now := time.Now()
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, hostSpan{
			ID: id, Parent: parent, Name: name,
			StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: now.Sub(t.t0).Nanoseconds(),
		})
		t.mu.Unlock()
	}
	return now.Sub(start)
}

// write stores the spans as NDJSON, one span per line in start order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].StartNs < t.spans[j].StartNs })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its child spans cover. Children
// that overlap one another (runs on parallel workers) are counted once.
func selfTimes(spans []hostSpan) map[string]time.Duration {
	children := make(map[int64][]hostSpan)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered := int64(0)
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.StartNs, s.StartNs), min(k.EndNs, s.EndNs)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// selfTimeLine renders selfTimes in name order for the report.
func selfTimeLine(spans []hostSpan) string {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	line := "host span self time:"
	for _, n := range names {
		line += fmt.Sprintf(" %s=%.1fms", n, float64(st[n])/1e6)
	}
	return line
}
