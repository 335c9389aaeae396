package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/fault"
	"memnet/internal/obs"
	"memnet/internal/sim"
	"memnet/internal/span"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata golden files from current output")

func kmeans(t *testing.T) workload.Spec {
	t.Helper()
	for _, s := range workload.Suite() {
		if s.Name == "KMEANS" {
			return s
		}
	}
	t.Fatal("KMEANS workload missing from suite")
	return workload.Spec{}
}

// TestTelemetryBitIdentical is the observers' core guarantee: arming a
// layer must leave every Results field — including the raw event count
// — bit-identical to a run without it. The layers are telemetry with an
// aggressive sampling interval, the lifecycle trace alone, and all three
// (telemetry, trace, spans) under a seeded kill/repair/BER schedule, as
// perfbench's faults-observed workload runs them.
func TestTelemetryBitIdentical(t *testing.T) {
	wl := kmeans(t)
	layers := []struct {
		name  string
		chaos bool
		arm   func(*Params)
	}{
		{"telemetry", false, func(p *Params) {
			p.Obs = &obs.Config{Enabled: true, SampleInterval: 100 * sim.Nanosecond}
		}},
		{"trace", false, func(p *Params) { p.TraceDepth = 256 }},
		{"faults-observed", true, func(p *Params) {
			p.Obs = &obs.Config{Enabled: true, SampleInterval: 100 * sim.Nanosecond}
			p.Spans = &span.Config{SampleStride: 4}
			p.TraceDepth = 256
		}},
	}
	for _, k := range []topology.Kind{topology.Chain, topology.Tree, topology.SkipList} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for _, l := range layers {
				t.Run(l.name, func(t *testing.T) {
					p := Params{
						Sys:          config.Default(),
						Topo:         k,
						Arb:          arb.RoundRobin,
						Workload:     wl,
						Transactions: 1200,
						Seed:         7,
					}
					if l.chaos {
						g, err := Graph(p)
						if err != nil {
							t.Fatal(err)
						}
						fc, err := fault.Chaos(g, fault.ChaosSpec{
							Seed:      7,
							Horizon:   sim.Time(p.Transactions) * wl.MeanGap / 2,
							LinkKills: 2, CubeKills: 2, LaneFlaps: 2,
							LinkBER: 1e-7,
						})
						if err != nil {
							t.Fatal(err)
						}
						p.Fault = &fc
					}
					plain, err := Simulate(p)
					if err != nil {
						t.Fatal(err)
					}
					if l.chaos && plain.Fault.CubesKilled == 0 {
						t.Fatalf("chaos schedule fired no cube kill: %+v", plain.Fault)
					}
					l.arm(&p)
					in, err := Build(p)
					if err != nil {
						t.Fatal(err)
					}
					observed, err := in.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(plain, observed) {
						t.Errorf("%s perturbed results\n off: %+v\n  on: %+v", l.name, plain, observed)
					}
					if p.TraceDepth > 0 && in.Trace.Total() == 0 {
						t.Error("trace armed but no events recorded")
					}
					if p.Obs.On() {
						checkInstruments(t, in.Telemetry, plain.Transactions)
					}
				})
			}
		})
	}
}

// checkInstruments checks the telemetry instruments saw the whole run:
// samples were taken, and every completion reached the latency histogram
// and the service vector.
func checkInstruments(t *testing.T, tel *Telemetry, txns uint64) {
	t.Helper()
	if tel == nil || tel.Sampler.Samples() == 0 {
		t.Fatal("telemetry armed but no samples recorded")
	}
	d := tel.Registry.Dump()
	var hist *obs.HistDump
	for i := range d.Histograms {
		if d.Histograms[i].Name == "host.latency_ps" {
			hist = &d.Histograms[i]
		}
	}
	if hist == nil || hist.Count != txns {
		t.Fatalf("latency histogram count %+v, want %d", hist, txns)
	}
	for _, v := range d.Vecs {
		if v.Name != "cube.service" {
			continue
		}
		var sum uint64
		for _, x := range v.Values {
			sum += x
		}
		if sum != txns {
			t.Errorf("cube.service sums to %d, want %d", sum, txns)
		}
		if v.Jain <= 0 || v.Jain > 1 {
			t.Errorf("service Jain index %v out of (0,1]", v.Jain)
		}
	}
}

// TestManifestValidates: the emitted run manifest conforms to the
// checked-in schema, with and without telemetry.
func TestManifestValidates(t *testing.T) {
	wl := kmeans(t)
	for _, withObs := range []bool{false, true} {
		p := Params{
			Sys:          config.Default(),
			Topo:         topology.Tree,
			Arb:          arb.RoundRobin,
			Workload:     wl,
			Transactions: 300,
			Seed:         7,
		}
		if withObs {
			p.Obs = &obs.Config{Enabled: true, SampleInterval: sim.Microsecond}
		}
		in, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		m := in.Manifest(res)
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateManifestJSON(buf.Bytes()); err != nil {
			t.Errorf("manifest (telemetry=%v) fails schema: %v\n%s", withObs, err, buf.String())
		}
		if withObs && m.Metrics == nil {
			t.Error("telemetry manifest missing metrics dump")
		}
		if !withObs && m.Metrics != nil {
			t.Error("plain manifest carries metrics dump")
		}
	}
}

// TestPerfettoGolden pins the Perfetto export of a small fixed-seed run
// byte for byte: identical seeds must serialize identical traces
// (stable event ordering is what makes the export diffable across
// hosts). Regenerate with -update-golden after an intentional change.
func TestPerfettoGolden(t *testing.T) {
	wl := kmeans(t)
	in, err := Build(Params{
		Sys:          config.Default(),
		Topo:         topology.Chain,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 25,
		Seed:         7,
		TraceDepth:   256,
		Obs:          &obs.Config{Enabled: true, SampleInterval: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "perfetto_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("perfetto export drifted from golden (%d vs %d bytes); rerun with -update-golden after verifying the change is intentional",
			buf.Len(), len(want))
	}
}
