package memnet

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// scenarioDoc is a complete document exercising the public loader: an
// irregular Y of three cubes with an embedded workload block.
const scenarioDoc = `{
	"schema": "memnet/scenario/v1",
	"name": "pub-y",
	"nodes": [
		{"name": "c0"},
		{"name": "c1", "tech": "nvm"},
		{"name": "c2"}
	],
	"links": [
		{"a": "host", "b": "c0"},
		{"a": "c0", "b": "c1"},
		{"a": "c0", "b": "c2"}
	],
	"workload": {"read_fraction": 0.7, "mean_gap_ps": 2000}
}`

func TestScenarioPublicRun(t *testing.T) {
	s, err := LoadScenario(strings.NewReader(scenarioDoc))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scenario: s, Transactions: 1500, Seed: 3, DRAMFraction: 1.0}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "pub-y" {
		t.Errorf("label = %q, want pub-y", res.Label)
	}
	if res.Transactions != 1500 {
		t.Errorf("completed %d", res.Transactions)
	}
	// The embedded workload block drove the run.
	if res.Workload != "custom" {
		t.Errorf("workload = %q, want custom", res.Workload)
	}
	// An explicit suite workload takes precedence over the block.
	cfg.Workload = "KMEANS"
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Workload != "KMEANS" {
		t.Errorf("explicit workload = %q, want KMEANS", res2.Workload)
	}
}

func TestScenarioNeedsWorkload(t *testing.T) {
	s, err := LoadScenario(strings.NewReader(scenarioDoc))
	if err != nil {
		t.Fatal(err)
	}
	s.Workload = nil
	if _, err := Run(Config{Scenario: s, DRAMFraction: 1.0}); err == nil ||
		!strings.Contains(err.Error(), "workload") {
		t.Fatalf("workload-less scenario config: %v", err)
	}
}

// TestScenarioExportRoundTrip is the public half of the byte-identity
// acceptance: exporting a Config's topology and running the export as a
// scenario reproduces the compiled-in Results exactly.
func TestScenarioExportRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = SkipList
	cfg.Transactions = 2000
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ExportScenario(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	// Through the serialized form, as mnsim -scenario would see it.
	reloaded, err := DecodeScenario(spec.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	sc := cfg
	sc.Scenario = reloaded
	via, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, via) {
		t.Errorf("export round trip differs:\ndirect: %+v\nvia:    %+v", direct, via)
	}
	if _, err := ExportScenario(sc, "again"); err == nil {
		t.Error("ExportScenario of a scenario-backed config not rejected")
	}
}

// TestScenarioExportFailLinks: a configuration's export carries its
// FailLinks cut, so the exported document simulates exactly like the
// cut configuration.
func TestScenarioExportFailLinks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = SkipList
	cfg.Transactions = 2000
	cfg.FailLinks = []int{2}
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ExportScenario(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := DecodeScenario(spec.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	sc := cfg
	sc.FailLinks = nil
	sc.Scenario = reloaded
	via, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, via) {
		t.Errorf("FailLinks export differs:\ndirect: %+v\nvia:    %+v", direct, via)
	}
}

// TestScenarioRunCached proves the cache-hit property: a re-loaded
// scenario document is served from the result cache without simulating,
// also when the config carries a telemetry block that arms nothing.
func TestScenarioRunCached(t *testing.T) {
	for _, c := range []struct {
		name string
		tel  *TelemetryConfig
	}{{"plain", nil}, {"telemetry-off", &TelemetryConfig{}}} {
		tel := c.tel
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func() (Results, bool) {
				s, err := LoadScenario(strings.NewReader(scenarioDoc))
				if err != nil {
					t.Fatal(err)
				}
				res, cached, err := RunCached(Config{Scenario: s, Transactions: 1000, DRAMFraction: 1.0, Telemetry: tel}, dir)
				if err != nil {
					t.Fatal(err)
				}
				return res, cached
			}
			first, cached := run()
			if cached {
				t.Fatal("first run reported cached")
			}
			second, cached := run()
			if !cached {
				t.Fatal("re-loaded scenario missed the cache")
			}
			if !reflect.DeepEqual(first, second) {
				t.Error("cached results differ from simulated results")
			}
		})
	}
}

func TestScenarioChaos(t *testing.T) {
	s, err := LoadScenario(strings.NewReader(scenarioDoc))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scenario: s, Transactions: 1000, DRAMFraction: 1.0}
	// Every edge of the Y is a bridge, so survivable link kills do not
	// exist here; cube kills and flaps are always schedulable.
	fc, err := GenerateChaos(cfg, ChaosSpec{Seed: 5, Horizon: 20 * Microsecond, CubeKills: 1, LaneFlaps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.KillCubes) != 1 || len(fc.LaneFlaps) != 1 {
		t.Fatalf("chaos plan = %+v", fc)
	}
	cfg.Fault = fc
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioSchemaExposed(t *testing.T) {
	js := ScenarioSchemaJSON()
	if !bytes.Contains(js, []byte(ScenarioSchema)) {
		t.Error("embedded schema does not pin the format identifier")
	}
	if _, err := LoadScenarioFile("no/such/file.json"); err == nil {
		t.Error("missing file not reported")
	}
}

// TestScenarioMachineSkipsCapacityEquation checks a machine run
// validates a scenario like the single-port run does: a DRAMFraction
// that does not solve the capacity equation is legal, because the
// spec declares the cube population.
func TestScenarioMachineSkipsCapacityEquation(t *testing.T) {
	f, err := os.Open("examples/scenario/twopod.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := LoadScenario(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scenario: s, Workload: "KMEANS", DRAMFraction: 0.3, Transactions: 1000, Seed: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := RunMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mr.PerPort[0], res) {
		t.Errorf("port 0 differs from Run\n port0: %+v\n   run: %+v", mr.PerPort[0], res)
	}
}
