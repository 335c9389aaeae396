package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"memnet/internal/core"
	"memnet/internal/experiments"
)

// tinyOpts keeps campaign tests fast: two workloads, short traces.
func tinyOpts() experiments.Options {
	return experiments.Options{
		Transactions: 50,
		Seed:         1,
		Workloads:    []string{"KMEANS", "NW"},
		Parallel:     2,
	}
}

// TestGridDeterministic checks enumeration is stable and deduplicated.
func TestGridDeterministic(t *testing.T) {
	a, err := Grid(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Grid(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty grid")
	}
	if len(a) != len(b) {
		t.Fatalf("grid sizes differ: %d vs %d", len(a), len(b))
	}
	seen := make(map[Fingerprint]bool, len(a))
	for i := range a {
		if a[i].FP != b[i].FP {
			t.Fatalf("grid order differs at %d: %s vs %s", i, a[i].FP, b[i].FP)
		}
		if seen[a[i].FP] {
			t.Fatalf("duplicate unit %s (%+v)", a[i].FP, a[i].Key)
		}
		seen[a[i].FP] = true
	}
	// The grid must include the off-baseline systems: Fig. 13's 4-port
	// doubled-trace runs and the resilience sweep's faulty runs.
	var fourPort, faulty bool
	for _, u := range a {
		if u.Key.Ports == 4 && u.Key.Transactions == 2*tinyOpts().Transactions {
			fourPort = true
		}
		if u.Key.Faulty {
			faulty = true
		}
	}
	if !fourPort {
		t.Error("grid is missing the Fig. 13 four-port runs")
	}
	if !faulty {
		t.Error("grid is missing the resilience fault runs")
	}
}

// TestShardPartition checks that for n in {1,2,3,8} the shards cover
// the grid exactly once: disjoint, and their union is the grid.
func TestShardPartition(t *testing.T) {
	grid, err := Grid(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 8} {
		counts := make(map[Fingerprint]int, len(grid))
		for k := 1; k <= n; k++ {
			for _, u := range (Shard{K: k, N: n}).Select(grid) {
				counts[u.FP]++
			}
		}
		if len(counts) != len(grid) {
			t.Errorf("n=%d: union covers %d of %d units", n, len(counts), len(grid))
		}
		for fp, c := range counts {
			if c != 1 {
				t.Errorf("n=%d: unit %s assigned %d times", n, fp, c)
			}
		}
	}
}

// TestParseShard checks the k/n syntax and its error cases.
func TestParseShard(t *testing.T) {
	if s, err := ParseShard("2/3"); err != nil || s.K != 2 || s.N != 3 {
		t.Fatalf("ParseShard(2/3) = %v, %v", s, err)
	}
	for _, bad := range []string{"", "3/2", "0/2", "x/y", "-1/2"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// renderAll runs every figure and table through the runner and returns
// the concatenated text tables plus the campaign manifest JSON — the
// byte surface the shard/merge path must reproduce exactly.
func renderAll(t *testing.T, opts experiments.Options, sim experiments.SimFunc) ([]byte, []byte) {
	t.Helper()
	r := experiments.NewRunner(opts)
	r.Sim = sim
	var text bytes.Buffer
	manifest := experiments.NewRunManifest(opts)
	for _, f := range r.Figures() {
		tab, err := f.Fn()
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		manifest.Add(tab)
		text.WriteString(tab.Text())
	}
	var mjson bytes.Buffer
	if err := manifest.Encode(&mjson); err != nil {
		t.Fatal(err)
	}
	return text.Bytes(), mjson.Bytes()
}

// TestShardMergeByteIdentical is the end-to-end acceptance test: an
// unsharded run and a 2-shard run merged from separate caches must
// produce byte-identical tables and manifests, and regenerating from
// the warm merged cache must perform zero simulations (asserted through
// the CachedSim run-count hook).
func TestShardMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute campaign comparison")
	}
	opts := tinyOpts()

	// Unsharded reference: plain simulation, no cache.
	wantText, wantJSON := renderAll(t, opts, nil)

	// Sharded: two shards into two separate stores...
	storeA, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	statsA, err := RunShard(opts, storeA, Shard{K: 1, N: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	statsB, err := RunShard(opts, storeB, Shard{K: 2, N: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if statsA.GridSize != statsB.GridSize {
		t.Fatalf("shards disagree on grid size: %d vs %d", statsA.GridSize, statsB.GridSize)
	}
	if statsA.ShardSize+statsB.ShardSize != statsA.GridSize {
		t.Fatalf("shards do not cover the grid: %d + %d != %d",
			statsA.ShardSize, statsB.ShardSize, statsA.GridSize)
	}

	// ... merged into one store ...
	merged, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*Store{storeA, storeB} {
		if _, skipped, err := merged.Merge(src); err != nil || skipped != 0 {
			t.Fatalf("merge: skipped=%d err=%v", skipped, err)
		}
	}
	if merged.Len() != statsA.GridSize {
		t.Fatalf("merged store has %d entries, want %d", merged.Len(), statsA.GridSize)
	}

	// ... and regenerated over the warm cache with a backend that
	// refuses to simulate.
	var counter Counter
	forbid := func(p core.Params) (core.Results, error) {
		return core.Results{}, fmt.Errorf("warm cache required a simulation: %s/%s",
			p.Label(), p.Workload.Name)
	}
	gotText, gotJSON := renderAll(t, opts, CachedSim(merged, forbid, &counter))
	if counter.Misses() != 0 {
		t.Errorf("warm-cache regeneration simulated %d times, want 0", counter.Misses())
	}
	if counter.Hits() == 0 {
		t.Error("warm-cache regeneration never hit the cache")
	}
	if !bytes.Equal(gotText, wantText) {
		t.Errorf("merged tables differ from unsharded run (%d vs %d bytes)",
			len(gotText), len(wantText))
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("merged manifest differs from unsharded run")
	}
}

// TestRunShardResumes checks a second RunShard over a warm store
// simulates nothing and reports every unit as a hit.
func TestRunShardResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign execution")
	}
	opts := tinyOpts()
	opts.Workloads = []string{"NW"}
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The first pass runs four workers with a progress callback that
	// touches plain variables: the race detector flags any concurrent
	// call, and Done must climb by one per unit.
	opts.Parallel = 4
	var calls, lastDone int
	first, err := RunShard(opts, store, Shard{}, func(p Progress) {
		calls++
		if p.Done != lastDone+1 {
			t.Errorf("progress Done = %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Simulated == 0 {
		t.Fatal("first pass simulated nothing")
	}
	if calls != first.ShardSize || lastDone != first.ShardSize {
		t.Errorf("first pass: %d progress calls ending at Done=%d, want %d", calls, lastDone, first.ShardSize)
	}
	var progressed int
	second, err := RunShard(opts, store, Shard{}, func(p Progress) { progressed++ })
	if err != nil {
		t.Fatal(err)
	}
	if second.Simulated != 0 {
		t.Errorf("resume simulated %d units, want 0", second.Simulated)
	}
	if second.Hits != first.ShardSize {
		t.Errorf("resume hit %d of %d units", second.Hits, first.ShardSize)
	}
	if progressed != second.ShardSize {
		t.Errorf("progress called %d times, want %d", progressed, second.ShardSize)
	}
}

// TestManifestSchemaStable pins the manifest JSON surface mndocs
// consumes: schema id and the lower-case table keys.
func TestManifestSchemaStable(t *testing.T) {
	m := experiments.NewRunManifest(tinyOpts())
	m.Add(&experiments.Table{
		ID: "figX", Title: "T", Columns: []string{"a"},
		Rows: []experiments.Row{{Label: "r", Values: []float64{1}}},
		Unit: "u",
	})
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["schema"] != experiments.CampaignSchema {
		t.Fatalf("schema = %v", doc["schema"])
	}
	tables := doc["tables"].([]any)
	tab := tables[0].(map[string]any)
	for _, key := range []string{"id", "title", "columns", "rows", "unit"} {
		if _, ok := tab[key]; !ok {
			t.Errorf("table JSON missing %q: %v", key, tab)
		}
	}
	opts := doc["options"].(map[string]any)
	if _, leaked := opts["Parallel"]; leaked {
		t.Error("machine-local Parallel leaked into the manifest")
	}
}
