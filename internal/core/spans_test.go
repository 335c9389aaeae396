package core

import (
	"bytes"
	"encoding/json"
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
)

// TestSpansBitIdentical is the span layer's core guarantee: arming the
// recorder on every hook (host inject, router grant, link ship, vault
// issue, completion) must leave every Results field bit-identical to an
// untraced run, and two traced runs must serialize byte-identical span
// files.
func TestSpansBitIdentical(t *testing.T) {
	wl := kmeans(t)
	for _, k := range []topology.Kind{topology.Chain, topology.Tree, topology.SkipList} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			p := Params{
				Sys:          config.Default(),
				Topo:         k,
				Arb:          arb.RoundRobin,
				Workload:     wl,
				Transactions: 1200,
				Seed:         7,
			}
			plain, err := Simulate(p)
			if err != nil {
				t.Fatal(err)
			}
			run := func() (Results, []byte) {
				q := p
				q.Spans = &span.Config{SampleStride: 4}
				in, err := Build(q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := in.Run()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := in.WriteSpans(&buf); err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			traced, file1 := run()
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("span tracing perturbed results\n off: %+v\n  on: %+v", plain, traced)
			}
			_, file2 := run()
			if !bytes.Equal(file1, file2) {
				t.Error("identical traced runs serialized different span files")
			}
			hdr, spans, err := span.Read(bytes.NewReader(file1))
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Stride != 4 || hdr.Spans != len(spans) || len(spans) == 0 {
				t.Fatalf("header %+v does not match %d parsed spans", hdr, len(spans))
			}
			if err := span.Check(spans); err != nil {
				t.Errorf("span file fails structural check: %v", err)
			}
		})
	}
}

// TestSpansAttribution pins the tentpole acceptance criterion: on a
// fig4-style run every picosecond of sampled end-to-end latency is
// attributed to an enumerated cause (the segments tile the injection-
// to-completion window exactly, so attribution is 100%, well above the
// required 99%).
func TestSpansAttribution(t *testing.T) {
	wl := kmeans(t)
	in, err := Build(Params{
		Sys:          config.Default(),
		Topo:         topology.Tree,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 2000,
		Seed:         1,
		Spans:        &span.Config{SampleStride: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	spans := in.Spans.Spans()
	if len(spans) < 100 {
		t.Fatalf("only %d spans sampled", len(spans))
	}
	a := span.Analyze(spans)
	if got := a.Attribution(); got < 0.99 {
		t.Errorf("attribution %.4f < 0.99 of sampled mean latency", got)
	}
	// Exact tiling: attributed picoseconds equal the summed end-to-end
	// windows on a fault-free run.
	if a.AttributedPs != a.TotalPs {
		t.Errorf("attributed %d ps != total %d ps (segments do not tile the window)", a.AttributedPs, a.TotalPs)
	}
	for _, c := range []span.Cause{span.LinkSer, span.LinkSerDes, span.RouterArb, span.VaultService} {
		if a.ByCause[c] == 0 {
			t.Errorf("cause %v attributed zero time over %d spans", c, len(spans))
		}
	}
}

// TestSpansUnderFaults checks the recorder stays structurally sound
// when retries, kills, and repairs bend packet paths: every span still
// passes Check and retry segments appear.
func TestSpansUnderFaults(t *testing.T) {
	wl := kmeans(t)
	in, err := Build(Params{
		Sys:          config.Default(),
		Topo:         topology.Ring,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 1500,
		Seed:         3,
		Spans:        &span.Config{SampleStride: 2},
		Fault: &fault.Config{
			LinkBER:     1e-5,
			KillLinks:   []fault.LinkKill{{Edge: 2, At: 500 * sim.Nanosecond}},
			RepairLinks: []fault.LinkRepair{{Edge: 2, At: 1200 * sim.Nanosecond}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	spans := in.Spans.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans under faults")
	}
	if err := span.Check(spans); err != nil {
		t.Errorf("faulty-run spans fail structural check: %v", err)
	}
	if res.Fault.Retries > 0 {
		a := span.Analyze(spans)
		if a.ByCause[span.LinkRetry] == 0 {
			t.Errorf("%d link retries occurred but no link.retry time attributed", res.Fault.Retries)
		}
	}
}

// TestSpansSamplerDeterminism pins the stride sampler: sampling is a
// pure function of (ID, seed), no RNG, so the sampled ID set is stable.
func TestSpansSamplerDeterminism(t *testing.T) {
	r := span.NewRecorder(span.Config{SampleStride: 8}, 21)
	for id := uint64(0); id < 64; id++ {
		want := id%8 == 21%8
		if got := r.Sampled(id); got != want {
			t.Fatalf("Sampled(%d) = %v, want %v", id, got, want)
		}
	}
}

// TestSpansPerfettoGolden pins the combined Perfetto export (packet
// lifecycles + counters + span slices and flow arrows) byte for byte.
// Regenerate with -update-golden after an intentional change.
func TestSpansPerfettoGolden(t *testing.T) {
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
		Spans:        &span.Config{SampleStride: 5},
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
	golden := filepath.Join("testdata", "perfetto_spans_golden.json")
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
		t.Errorf("perfetto span export drifted from golden (%d vs %d bytes); rerun with -update-golden after verifying the change is intentional",
			buf.Len(), len(want))
	}
}

// TestSpansNDJSONGolden pins the NDJSON span file byte for byte. The
// run block comes from a ring under a kill/repair/flap schedule with
// bit errors, capped so that sampled transactions are dropped; a second
// block, written with an empty label, carries spans with nil and empty
// segment lists. Regenerate with -update-golden after an intentional
// change.
func TestSpansNDJSONGolden(t *testing.T) {
	wl := kmeans(t)
	in, err := Build(Params{
		Sys:          config.Default(),
		Topo:         topology.Ring,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 1500,
		Seed:         3,
		Spans:        &span.Config{SampleStride: 8, MaxSpans: 32},
		Fault: &fault.Config{
			LinkBER:       1e-5,
			KillLinks:     []fault.LinkKill{{Edge: 2, At: 300 * sim.Nanosecond}},
			RepairLinks:   []fault.LinkRepair{{Edge: 2, At: 900 * sim.Nanosecond}},
			KillCubes:     []fault.CubeKill{{Node: 4, At: 300 * sim.Nanosecond}},
			RepairCubes:   []fault.CubeRepair{{Node: 4, At: 900 * sim.Nanosecond}},
			LaneFlaps:     []fault.LaneFlap{{Edge: 0, Down: 200 * sim.Nanosecond, Up: 800 * sim.Nanosecond}},
			RetrainWindow: 100 * sim.Nanosecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.WriteSpans(&buf); err != nil {
		t.Fatal(err)
	}
	extra := []span.TxSpan{
		{ID: 1, Kind: "ReadReq", Addr: 64, Dst: 2, Injected: 10, Completed: 20},
		{ID: 2, Kind: "WriteReq", Addr: 128, Dst: 0, Injected: 30, Completed: 30, Segs: []span.Seg{}},
	}
	if err := span.Write(&buf, span.Header{Seed: 3, Stride: 1}, extra); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"c":"link.retry"`, `\u003e`, `"dropped":`, `"segs":null`, `"segs":[]`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("span file does not exercise %s", want)
		}
	}
	if n := bytes.Count(buf.Bytes(), []byte(`"label":`)); n != 1 {
		t.Errorf("%d labelled headers, want 1 of 2", n)
	}
	golden := filepath.Join("testdata", "spans_golden.ndjson")
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
		t.Errorf("NDJSON span file drifted from golden (%d vs %d bytes); rerun with -update-golden after verifying the change is intentional",
			buf.Len(), len(want))
	}
}

// TestTimelineInManifest: a kill/repair run's manifest carries the
// recovery timeline — retrain window bounds and per-direction healed
// bits on the repair — and still validates against the schema.
func TestTimelineInManifest(t *testing.T) {
	wl := kmeans(t)
	in, err := Build(Params{
		Sys:          config.Default(),
		Topo:         topology.Ring,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 1500,
		Seed:         3,
		Fault: &fault.Config{
			KillLinks:   []fault.LinkKill{{Edge: 2, At: 500 * sim.Nanosecond}},
			RepairLinks: []fault.LinkRepair{{Edge: 2, At: 1200 * sim.Nanosecond}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := in.Manifest(res)
	tl, ok := m.Timeline.([]TimelineEvent)
	if !ok || len(tl) != 2 {
		t.Fatalf("timeline = %#v, want 2 events", m.Timeline)
	}
	if tl[0].Kind != "kill_link" || tl[0].Edge == nil || *tl[0].Edge != 2 {
		t.Errorf("timeline[0] = %+v, want kill_link on edge 2", tl[0])
	}
	rep := tl[1]
	if rep.Kind != "repair_link" || rep.StartPs == nil || *rep.StartPs != int64(1200*sim.Nanosecond) {
		t.Errorf("timeline[1] = %+v, want repair_link starting at 1.2us", rep)
	}
	if rep.AtPs <= *rep.StartPs {
		t.Errorf("repair completes at %d, not after retrain start %d", rep.AtPs, *rep.StartPs)
	}
	if rep.HealedBitsAB == nil || rep.HealedBitsBA == nil {
		t.Fatal("repair_link timeline entry missing healed-bits counters")
	}
	if res.Fault.HealedBits > 0 && *rep.HealedBitsAB+*rep.HealedBitsBA == 0 {
		t.Errorf("run healed %d bits but the timeline entry shows zero", res.Fault.HealedBits)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifestJSON(buf.Bytes()); err != nil {
		t.Errorf("timeline manifest fails schema: %v\n%s", err, buf.String())
	}
}

// TestMachineManifestGauges: machine runs carry a per-port load record
// (events, finish time, barrier wait) for every worker count, the
// record is identical across -shards values, and the encoded manifest
// validates and carries exactly the v2 per-port keys.
func TestMachineManifestGauges(t *testing.T) {
	wl := kmeans(t)
	base := Params{
		Sys:          config.Default(),
		Topo:         topology.Tree,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 300,
		Seed:         1,
	}
	var prev *MachineResults
	for _, shards := range []int{2, 4} {
		mp := MachineParams{Base: base, Shards: shards}
		mr, err := RunMachine(mp)
		if err != nil {
			t.Fatal(err)
		}
		if len(mr.Shards) != base.Sys.Ports {
			t.Fatalf("shards=%d: %d shard records, want %d", shards, len(mr.Shards), base.Sys.Ports)
		}
		var sawWait bool
		for i, sl := range mr.Shards {
			if sl.Shard != i || sl.Events == 0 || sl.FinishPs == 0 {
				t.Errorf("shards=%d: degenerate shard record %+v", shards, sl)
			}
			if sl.Events != mr.PerPort[i].Events || sl.FinishPs != int64(mr.PerPort[i].FinishTime) {
				t.Errorf("shards=%d: shard %d record %+v disagrees with its port results", shards, i, sl)
			}
			if sl.BarrierWaitPs > 0 {
				sawWait = true
			}
			if sl.BarrierWaitPs != int64(mr.FinishTime)-sl.FinishPs {
				t.Errorf("shards=%d: shard %d barrier wait %d != finish spread", shards, i, sl.BarrierWaitPs)
			}
		}
		if !sawWait {
			t.Errorf("shards=%d: every port finished at the same instant (no barrier wait recorded)", shards)
		}
		if prev != nil && !reflect.DeepEqual(*prev, mr) {
			t.Errorf("machine results (load records included) differ across shard counts")
		}
		prev = &mr
		var buf bytes.Buffer
		if err := MachineManifest(mp, mr).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateManifestJSON(buf.Bytes()); err != nil {
			t.Errorf("machine manifest fails schema: %v\n%s", err, buf.String())
		}
		var doc struct {
			Schema  string
			Machine map[string]json.RawMessage
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Schema != obs.ManifestSchema {
			t.Errorf("schema = %q, want %q", doc.Schema, obs.ManifestSchema)
		}
		for _, gone := range []string{"windows", "events_per_window"} {
			if _, ok := doc.Machine[gone]; ok {
				t.Errorf("shards=%d: machine record still carries %q", shards, gone)
			}
		}
		var ports []map[string]json.RawMessage
		if err := json.Unmarshal(doc.Machine["shards"], &ports); err != nil {
			t.Fatal(err)
		}
		if len(ports) != base.Sys.Ports {
			t.Fatalf("shards=%d: manifest has %d port records, want %d", shards, len(ports), base.Sys.Ports)
		}
		for i, port := range ports {
			for _, key := range []string{"events", "finish_ps", "barrier_wait_ps"} {
				if _, ok := port[key]; !ok {
					t.Errorf("shards=%d: port %d record lacks %q", shards, i, key)
				}
			}
			for _, gone := range []string{"posts", "merged", "max_inbox", "lookahead_slack"} {
				if _, ok := port[gone]; ok {
					t.Errorf("shards=%d: port %d record still carries %q", shards, i, gone)
				}
			}
		}
	}
}

// TestMachineRejectsSpans: RunMachine refuses span tracing the same way
// it refuses traces and telemetry.
func TestMachineRejectsSpans(t *testing.T) {
	wl := kmeans(t)
	base := Params{
		Sys:          config.Default(),
		Topo:         topology.Tree,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 100,
		Seed:         1,
		Spans:        &span.Config{SampleStride: 4},
	}
	if _, err := RunMachine(MachineParams{Base: base, Shards: 2}); err == nil {
		t.Fatal("RunMachine accepted Params.Spans")
	}
}
