package obs

import (
	"encoding/json"
	"io"
	"runtime/debug"
	"sort"
)

// ManifestSchema identifies the manifest layout; bump on breaking
// changes. The checked-in manifest.schema.json validates this version.
const ManifestSchema = "memnet/run-manifest/v2"

// Manifest is the machine-readable record of one simulation run:
// everything needed to reproduce it (config, seed, toolchain, git ref)
// and everything it produced (results, per-node reports, metrics,
// fairness series). Config, Results, Nodes, and Fault are typed by the
// caller (core wires its own structs) so obs stays dependency-free.
type Manifest struct {
	// Schema is ManifestSchema at write time.
	Schema string `json:"schema"`
	// GitRef is the VCS revision of the producing binary, when stamped.
	GitRef string `json:"git_ref,omitempty"`
	// GoVersion is the toolchain that built the producing binary.
	GoVersion string `json:"go_version,omitempty"`

	// Label is the paper-style configuration name.
	Label string `json:"label,omitempty"`
	// Seed is the workload seed the run used.
	Seed int64 `json:"seed"`
	// Workload names the traffic proxy.
	Workload string `json:"workload,omitempty"`

	// Config is the caller-typed full run configuration.
	Config any `json:"config,omitempty"`
	// Results is the caller-typed results record.
	Results any `json:"results,omitempty"`
	// Nodes is the caller-typed per-node report.
	Nodes any `json:"nodes,omitempty"`
	// Fault is the caller-typed fault-counter record.
	Fault any `json:"fault,omitempty"`
	// Timeline is the caller-typed recovery timeline: scheduled fault and
	// repair events with retrain windows and per-direction healed bits.
	Timeline any `json:"timeline,omitempty"`
	// Machine is the caller-typed per-port load record of whole-machine
	// runs: each port's event count, finish time and barrier wait.
	Machine any `json:"machine,omitempty"`

	// SampleIntervalPs is the sampler period in picoseconds (0 = off).
	SampleIntervalPs int64 `json:"sample_interval_ps,omitempty"`
	// Samples counts interval snapshots the sampler took.
	Samples int `json:"samples,omitempty"`
	// Fairness maps series names to whole-run Jain fairness indices.
	Fairness map[string]float64 `json:"fairness,omitempty"`

	// Metrics is the end-of-run registry snapshot.
	Metrics *MetricsDump `json:"metrics,omitempty"`
}

// MetricsDump is the end-of-run snapshot of a registry, sorted by
// metric name within each kind for deterministic output.
type MetricsDump struct {
	// Counters holds every counter's final value.
	Counters []CounterDump `json:"counters,omitempty"`
	// Gauges holds every gauge's value at dump time.
	Gauges []GaugeDump `json:"gauges,omitempty"`
	// Vecs holds every labelled vector's values.
	Vecs []VecDump `json:"vecs,omitempty"`
	// Histograms holds every histogram's quantile summary.
	Histograms []HistDump `json:"histograms,omitempty"`
}

// CounterDump is one counter's final value.
type CounterDump struct {
	// Name is the registered metric name.
	Name string `json:"name"`
	// Value is the final count.
	Value uint64 `json:"value"`
}

// GaugeDump is one gauge's value at dump time.
type GaugeDump struct {
	// Name is the registered metric name.
	Name string `json:"name"`
	// Value is the gauge reading at dump time.
	Value int64 `json:"value"`
}

// VecDump is one vector's labelled values at dump time.
type VecDump struct {
	// Name is the registered metric name.
	Name string `json:"name"`
	// Labels names the vector's elements, index-aligned with Values.
	Labels []string `json:"labels"`
	// Values holds the per-element counts.
	Values []uint64 `json:"values"`
	// Jain is the Jain fairness index over Values.
	Jain float64 `json:"jain"`
}

// HistDump summarizes one histogram: count, mean and nearest-rank
// quantiles in picoseconds. Raw buckets are omitted — the histogram's
// resolution (quarter-octave) makes the quantile set a faithful and far
// smaller summary.
type HistDump struct {
	// Name is the registered metric name.
	Name string `json:"name"`
	// Count is the number of recorded samples.
	Count uint64 `json:"count"`
	// MinPs is the smallest recorded sample, in picoseconds.
	MinPs int64 `json:"min_ps"`
	// MaxPs is the largest recorded sample, in picoseconds.
	MaxPs int64 `json:"max_ps"`
	// MeanPs is the sample mean, in picoseconds.
	MeanPs int64 `json:"mean_ps"`
	// P50Ps is the nearest-rank median, in picoseconds.
	P50Ps int64 `json:"p50_ps"`
	// P90Ps is the nearest-rank 90th percentile, in picoseconds.
	P90Ps int64 `json:"p90_ps"`
	// P99Ps is the nearest-rank 99th percentile, in picoseconds.
	P99Ps int64 `json:"p99_ps"`
}

// Dump snapshots every registered metric, sorted by name within each
// kind. Probes are evaluated once, at call time; call it after the run
// completes. A nil registry returns nil.
func (r *Registry) Dump() *MetricsDump {
	if r == nil {
		return nil
	}
	d := &MetricsDump{}
	for _, c := range r.counters {
		d.Counters = append(d.Counters, CounterDump{Name: c.name, Value: c.v})
	}
	for i := range r.gauges {
		g := &r.gauges[i]
		d.Gauges = append(d.Gauges, GaugeDump{Name: g.name, Value: g.probe()})
	}
	for i := range r.vecs {
		v := &r.vecs[i]
		vals := append([]uint64(nil), v.probe()...)
		d.Vecs = append(d.Vecs, VecDump{
			Name:   v.name,
			Labels: v.labels,
			Values: vals,
			Jain:   Jain(vals),
		})
	}
	for _, h := range r.hists {
		d.Histograms = append(d.Histograms, HistDump{
			Name:   h.name,
			Count:  h.Count(),
			MinPs:  int64(h.Min()),
			MaxPs:  int64(h.Max()),
			MeanPs: int64(h.Mean()),
			P50Ps:  int64(h.Quantile(0.50)),
			P90Ps:  int64(h.Quantile(0.90)),
			P99Ps:  int64(h.Quantile(0.99)),
		})
	}
	sort.Slice(d.Counters, func(i, j int) bool { return d.Counters[i].Name < d.Counters[j].Name })
	sort.Slice(d.Gauges, func(i, j int) bool { return d.Gauges[i].Name < d.Gauges[j].Name })
	sort.Slice(d.Vecs, func(i, j int) bool { return d.Vecs[i].Name < d.Vecs[j].Name })
	sort.Slice(d.Histograms, func(i, j int) bool { return d.Histograms[i].Name < d.Histograms[j].Name })
	return d
}

// Attach fills the sampler-derived manifest fields: interval, sample
// count, and the final cumulative Jain index per vector.
func (m *Manifest) Attach(s *Sampler) {
	if s == nil || s.Samples() == 0 {
		return
	}
	m.SampleIntervalPs = int64(s.Interval())
	m.Samples = s.Samples()
	last := s.Samples() - 1
	for i := range s.vecs {
		row := s.vecRows[i][last]
		if m.Fairness == nil {
			//lint:coldpath end-of-run manifest assembly
			m.Fairness = make(map[string]float64)
		}
		m.Fairness[s.vecs[i].name] = Jain(row)
	}
}

// GitRef reports the VCS revision the binary was built from (via
// runtime/debug build info), with a "+dirty" suffix for modified trees.
// Empty when build info is unavailable (e.g. `go test` binaries).
func GitRef() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// NewManifest returns a manifest stamped with the schema version,
// toolchain, and git ref.
func NewManifest() *Manifest {
	m := &Manifest{Schema: ManifestSchema, GitRef: GitRef()}
	if info, ok := debug.ReadBuildInfo(); ok {
		m.GoVersion = info.GoVersion
	}
	return m
}

// Encode writes the manifest as indented JSON.
func (m *Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
