// Command mnexp regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports (speedups
// over the 100% chain, latency breakdowns, energy splits, ...).
//
// Runs can be backed by a persistent content-addressed result cache
// (-cache): every simulation already present in the cache is served
// from disk, so interrupted campaigns resume and repeated invocations
// are free. Long campaigns can be split across machines with -shard
// k/n, which executes one partition of the full grid into the cache
// and exits; -merge joins shard caches and regenerates every table
// from the combined results.
//
// Examples:
//
//	mnexp                                  # run everything at publication scale
//	mnexp -exp fig4,fig7                   # selected figures
//	mnexp -quick                           # reduced trace length (fast)
//	mnexp -format csv -out out             # write CSV files per experiment
//	mnexp -cache results/cache -out results
//	mnexp -shard 1/2 -cache shard1         # machine 1 of a 2-way campaign
//	mnexp -shard 2/2 -cache shard2         # machine 2
//	mnexp -merge shard1,shard2 -cache results/cache -out results
//	mnexp -scenario examples/scenario/twopod.json -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"memnet/internal/campaign"
	"memnet/internal/experiments"
	"memnet/internal/prof"
	"memnet/internal/scenario"
)

func main() {
	var (
		expFlag = flag.String("exp", "all",
			"comma-separated: table1,table2,fig4,fig5,fig7,fig10,fig11,fig12,fig13,fig14,fig15,mesh,resilience,chaos or all")
		scenFlag = flag.String("scenario", "", "evaluate a declarative scenario file across the workload suite instead of -exp (see SCENARIOS.md); honors -cache")
		quick    = flag.Bool("quick", false, "reduced trace length for a fast pass")
		txns     = flag.Uint64("txns", 0, "override transactions per run")
		seed     = flag.Uint64("seed", 1, "workload seed")
		format   = flag.String("format", "text", "text | csv | chart")
		outDir   = flag.String("out", "", "directory for per-experiment output files plus experiments.json (default stdout)")
		cacheDir = flag.String("cache", "", "content-addressed result cache directory; hits skip simulation")
		shardStr = flag.String("shard", "", "run partition k/n of the full campaign grid into -cache and exit (ignores -exp)")
		mergeStr = flag.String("merge", "", "comma-separated shard cache directories to merge into -cache before generating tables")
		maniOut  = flag.String("manifest", "", "also write the campaign manifest JSON to this file")
		shards   = flag.Int("shards", 0, "worker goroutines fanning out independent simulation runs; tables are identical for every value (0 = GOMAXPROCS)")
		spansOut = flag.String("spans-out", "", "write causal spans from every simulated run as one NDJSON file (one block per run, sorted by run key; byte-identical for every -shards value); bypasses -cache")
		spanSamp = flag.Uint64("span-sample", 0, "span sampling stride per run (default 32 when -spans-out is set)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *spansOut != "" && *shardStr != "" {
		fatal(fmt.Errorf("-spans-out is not supported with -shard (shard campaigns only fill the cache)"))
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mnexp:", err)
		}
	}()

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *txns > 0 {
		opts.Transactions = *txns
	}
	opts.Seed = *seed
	if *shards > 0 {
		opts.Parallel = *shards
	}

	runner := experiments.NewRunner(opts)
	exps := experimentList(runner)
	var want map[string]bool
	if *shardStr == "" && *scenFlag == "" {
		want, err = selectExperiments(*expFlag, exps)
		fatalIf(err)
	}

	var store *campaign.Store
	if *cacheDir != "" {
		store, err = campaign.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
	}

	if *shardStr != "" {
		runShard(opts, store, *shardStr)
		return
	}
	if *mergeStr != "" {
		mergeShards(store, *mergeStr)
	}

	var counter campaign.Counter
	if store != nil {
		runner.Sim = campaign.CachedSim(store, nil, &counter)
	}
	var spanCol *spanCollector
	if *spansOut != "" {
		stride := *spanSamp
		if stride == 0 {
			stride = 32
		}
		// Span-traced runs are never cacheable, so the collector replaces
		// any cache backend outright.
		spanCol = newSpanCollector(stride)
		runner.Sim = spanCol.sim
	}

	if *scenFlag != "" {
		spec, err := scenario.LoadFile(*scenFlag)
		fatalIf(err)
		tab, err := runner.Scenario(spec)
		fatalIf(err)
		switch *format {
		case "csv":
			emit(tab.ID, tab.CSV(), *outDir, "csv")
		case "chart":
			emit(tab.ID, tab.Chart(), *outDir, "txt")
		default:
			emit(tab.ID, tab.Text(), *outDir, "txt")
		}
		if store != nil {
			fmt.Fprintf(os.Stderr, "mnexp: cache %s: %d hits, %d simulated\n",
				store.Dir(), counter.Hits(), counter.Misses())
		}
		return
	}

	manifest := experiments.NewRunManifest(opts)
	for _, e := range exps {
		if !want[e.id] {
			continue
		}
		if e.id == "table2" {
			emit(e.id, experiments.Table2Text(), *outDir, "txt")
			continue
		}
		tab, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mnexp: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		manifest.Add(tab)
		switch *format {
		case "csv":
			emit(e.id, tab.CSV(), *outDir, "csv")
		case "chart":
			emit(e.id, tab.Chart(), *outDir, "txt")
		default:
			emit(e.id, tab.Text(), *outDir, "txt")
		}
	}
	if store != nil {
		fmt.Fprintf(os.Stderr, "mnexp: cache %s: %d hits, %d simulated\n",
			store.Dir(), counter.Hits(), counter.Misses())
	}
	if spanCol != nil {
		if err := spanCol.writeFile(*spansOut); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *spansOut)
	}

	manifestPaths := []string{}
	if *outDir != "" {
		manifestPaths = append(manifestPaths, filepath.Join(*outDir, "experiments.json"))
	}
	if *maniOut != "" {
		manifestPaths = append(manifestPaths, *maniOut)
	}
	for _, path := range manifestPaths {
		if err := writeManifest(manifest, path); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

// runShard executes one campaign partition into the cache and exits.
func runShard(opts experiments.Options, store *campaign.Store, shardStr string) {
	if store == nil {
		fatal(fmt.Errorf("-shard requires -cache"))
	}
	shard, err := campaign.ParseShard(shardStr)
	if err != nil {
		fatal(err)
	}
	stats, err := campaign.RunShard(opts, store, shard, func(p campaign.Progress) {
		verb := "ran"
		if p.Hit {
			verb = "hit"
		}
		fmt.Fprintf(os.Stderr, "mnexp: shard %s [%d/%d] %s %s/%s\n",
			shard, p.Done, p.Total, verb, p.Key.Label, p.Key.Workload)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("shard %s: %d of %d grid units; %d cached, %d simulated\n",
		shard, stats.ShardSize, stats.GridSize, stats.Hits, stats.Simulated)
}

// mergeShards joins the listed shard caches into the main cache.
func mergeShards(store *campaign.Store, mergeStr string) {
	if store == nil {
		fatal(fmt.Errorf("-merge requires -cache"))
	}
	for _, dir := range strings.Split(mergeStr, ",") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		src, err := campaign.Open(dir)
		if err != nil {
			fatal(err)
		}
		added, skipped, err := store.Merge(src)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mnexp: merged %s: %d added, %d skipped\n", dir, added, skipped)
	}
}

// writeManifest writes the campaign manifest JSON to path.
func writeManifest(m *experiments.RunManifest, path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = m.Encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// emit writes content to a file in dir (if set) or to stdout.
func emit(id, content, dir, ext string) {
	if dir == "" {
		fmt.Println(content)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, id+"."+ext)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// experiment is one table or figure mnexp can regenerate; fn is nil for
// table2, which is text.
type experiment struct {
	id string
	fn func() (*experiments.Table, error)
}

// experimentList returns every experiment in output order.
func experimentList(r *experiments.Runner) []experiment {
	list := []experiment{
		{"table1", func() (*experiments.Table, error) { return experiments.Table1() }},
		{"table2", nil},
	}
	for _, f := range r.Figures() {
		list = append(list, experiment{f.ID, f.Fn})
	}
	return list
}

// selectExperiments resolves an -exp value against list: "all" selects
// every experiment, otherwise each comma-separated id must name one.
func selectExperiments(spec string, list []experiment) (map[string]bool, error) {
	want := map[string]bool{}
	if spec == "all" {
		for _, e := range list {
			want[e.id] = true
		}
		return want, nil
	}
	valid := map[string]bool{}
	var ids []string
	for _, e := range list {
		valid[e.id] = true
		ids = append(ids, e.id)
	}
	var unknown []string
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if !valid[id] {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown -exp id %s; valid ids: %s, or all",
			strings.Join(unknown, ", "), strings.Join(ids, ","))
	}
	return want, nil
}

// fatal prints the error and exits.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mnexp:", err)
	os.Exit(1)
}

// fatalIf is fatal for non-nil errors.
func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}
