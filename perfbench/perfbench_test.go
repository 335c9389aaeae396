package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestPercentileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		want   float64
		beyond int
		report bool
	}{
		{n: 100, want: 90, beyond: 10, report: true},
		{n: 99, want: 90, beyond: 9, report: false},
		{n: 250, want: 225, beyond: 25, report: true},
		{n: 9, want: 9, beyond: 0, report: false},
	} {
		v, beyond := percentile(seq(tc.n), 0.9)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("n=%d: p90 = %v with %d beyond, want %v with %d", tc.n, v, beyond, tc.want, tc.beyond)
		}
		if _, ok := tailPercentile(seq(tc.n), 0.9); ok != tc.report {
			t.Errorf("n=%d: reported = %v, want %v", tc.n, ok, tc.report)
		}
	}
	if _, ok := endToEndMetrics(endToEndInput{txns: 1, wall: time.Second, runMs: seq(99)})["run_p90_ms"]; ok {
		t.Error("run_p90_ms reported with 9 samples beyond it")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(x uint64) pb {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func (b pb) uint(num int, v uint64) pb { return b.varint(uint64(num) << 3).varint(v) }

func (b pb) bytes(num int, p []byte) pb {
	return append(b.varint(uint64(num)<<3|2).varint(uint64(len(p))), p...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p pb
	for _, v := range vs {
		p = p.varint(v)
	}
	return b.bytes(num, p)
}

// testProfile encodes a CPU profile whose samples (count, ns) land on
// the given leaf functions. The sample for location 2 is an inlined
// frame: its innermost function must be charged.
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"",
		"memnet/internal/router.(*Router).drain",
		"memnet/internal/arb.(*wrr).Pick",
		"memnet/internal/sim.(*Engine).Step",
		"runtime.mallocgc",
		"memnet/internal/core.buildOn.func3",
		"memnet/internal/campaign.Run",
	}
	var p pb
	for id := uint64(1); id < uint64(len(strs)); id++ {
		p = p.bytes(5, pb{}.uint(1, id).uint(2, id)) // function id -> name id
	}
	// location i -> function i; location 7 inlines arb (innermost) into router.
	for id := uint64(1); id < uint64(len(strs)); id++ {
		p = p.bytes(4, pb{}.uint(1, id).bytes(4, pb{}.uint(1, id)))
	}
	p = p.bytes(4, pb{}.uint(1, 7).bytes(4, pb{}.uint(1, 2)).bytes(4, pb{}.uint(1, 1)))
	sample := func(loc, ns uint64) {
		p = p.bytes(2, pb{}.packed(1, loc, 3).packed(2, 1, ns))
	}
	sample(1, 30) // router
	sample(7, 10) // arb, inlined into router: router layer
	sample(3, 20) // sim
	sample(4, 25) // runtime: no layer
	sample(5, 10) // core
	sample(6, 5)  // campaign: other
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileAggregation(t *testing.T) {
	prof, err := parseCPUProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if prof.Total != 100 {
		t.Fatalf("total = %d, want 100", prof.Total)
	}
	if got := prof.Self["memnet/internal/arb.(*wrr).Pick"]; got != 10 {
		t.Errorf("inlined arb frame self = %d, want 10", got)
	}
	got := prof.layerShares()
	want := map[string]float64{"router": 0.4, "sim": 0.2, "core": 0.1, "other": 0.05}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shares = %v, want %v", got, want)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestInternalPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"memnet/internal/router.(*Router).drain":           "router",
		"memnet/internal/core.buildOn.func3":               "core",
		"memnet/internal/lint/cfg.Build":                   "lint",
		"memnet/internal/sim.(*Engine).siftDown":           "sim",
		"runtime.mallocgc":                                 "",
		"memnet/perfbench.runOne":                          "",
		"memnet/internal/experiments.(*Runner).Warm.func1": "experiments",
	} {
		got, _ := internalPackage(fn)
		if got != want {
			t.Errorf("internalPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []hostSpan{
		{ID: 1, Parent: 0, Name: "workload", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "run", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "run", StartNs: 20, EndNs: 50}, // overlaps 2
		{ID: 4, Parent: 1, Name: "run", StartNs: 90, EndNs: 120},
		{ID: 5, Parent: 3, Name: "core.Build", StartNs: 20, EndNs: 25},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"workload": 50, "run": 20 + 25 + 30, "core.Build": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

// TestDigestStableAcrossWorkers runs each workload's first pass at one
// and two workers: the Results digests must agree, and at the recorded
// seed equal the recorded digests.
func TestDigestStableAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload twice")
	}
	for _, name := range []string{"figures", "machine-skiplist", "faults-observed"} {
		var digests []uint64
		for _, workers := range []int{1, 2} {
			wl, err := newWorkload(name, recordedSeed, workers)
			if err != nil {
				t.Fatal(err)
			}
			p := wl.pass(modeTimed, nil, 0, nil)
			if p.failed > 0 {
				t.Fatalf("%s at %d workers: %v", name, workers, p.errs)
			}
			digests = append(digests, p.digest())
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %016x at 1 worker, %016x at 2", name, digests[0], digests[1])
		}
		if digests[0] != recordedDigests[name] {
			t.Errorf("%s: digest %016x, recorded %016x", name, digests[0], recordedDigests[name])
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	out := make([]string, 0, len(defs))
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// TestMetricsMatchBenchmarkFile requires every metric the program can
// emit to be well named and declared in BENCHMARK.json with the same
// unit, direction and bound, and every declared metric to be emitted.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEndDefs) || len(f.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics; the program defines %d and %d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, d := range endToEndDefs {
		e := f.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program defines %+v", i, e, d)
		}
	}
	for i, d := range perLayerDefs {
		e := f.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program defines %+v", i, e, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: malformed", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}

	runs := make([]float64, 200)
	for i := range runs {
		runs[i] = float64(i)
	}
	e2e := endToEndMetrics(endToEndInput{txns: 1, wall: time.Second, runMs: runs})
	if got, want := sortedKeys(e2e), defNames(endToEndDefs); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics emitted %v, declared %v", got, want)
	}
	pl := perLayerMetrics(perLayerInput{})
	if got, want := sortedKeys(pl), defNames(perLayerDefs); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics emitted %v, declared %v", got, want)
	}

	for _, w := range f.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: malformed name", w.Name)
		}
		if _, err := newWorkload(w.Name, 1, 1); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
		if _, ok := recordedDigests[w.Name]; !ok {
			t.Errorf("workload %q has no recorded digest", w.Name)
		}
	}
}
