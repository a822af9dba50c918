package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/scale"
	"repro/internal/topology"
)

// tinyParams shrinks every workload to run in well under a second.
func tinyParams(seed uint64) params {
	p := defaultParams(seed, 200*time.Millisecond)
	p.scale.nodes, p.scale.checkNodes, p.scale.setups = 1000, 300, 2
	p.transit.setups, p.transit.warmup, p.transit.traceOps, p.transit.allocOps = 2, 500, 5000, 1000
	p.mix.corpus, p.mix.setups, p.mix.traceOps = 512, 2, 1<<16
	p.mp.bytes, p.mp.setups, p.mp.warmup, p.mp.traceOps, p.mp.allocOps = 32<<10, 2, 1, 5, 5
	return p
}

func TestWorkloadsAtTinySize(t *testing.T) {
	p := tinyParams(42)
	for _, w := range workloads {
		o, err := w.run(p)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res := o.result(o.endToEnd())
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || o.ops == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d ops=%d", w.name, res.Correct, res.Attempted, res.Failed, o.ops)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive measurement", w.name, name, m.Value)
			}
		}
	}
}

// TestSliceDrainMatchesRun pins the scale-forward drain: stepping the
// simulator in fixed slices must give the same digest as one
// uninterrupted run.
func TestSliceDrainMatchesRun(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		cfg := scaleConfig(1000, seed)
		if got, want := drainBySlices(cfg), scale.Run(cfg).Render(); got != want {
			t.Errorf("seed %d: slice-driven digest\n%s\nwant\n%s", seed, got, want)
		}
	}
}

// TestScaleDigestRepeats runs scale-forward twice at one seed.
func TestScaleDigestRepeats(t *testing.T) {
	p := tinyParams(7).scale
	a, err := runScaleForward(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runScaleForward(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.info["digest_sha256"] != b.info["digest_sha256"] {
		t.Errorf("digests differ: %v vs %v", a.info["digest_sha256"], b.info["digest_sha256"])
	}
}

// flipLast is a middlebox that flips the last byte of every datagram:
// the payload is corrupted, the headers stay valid.
type flipLast struct{}

func (flipLast) Name() string { return "flip" }
func (flipLast) Silent() bool { return true }
func (flipLast) Process(_ topology.NodeID, _ netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	out := append([]byte(nil), data...)
	out[len(out)-1] ^= 0xff
	return out, netsim.Accept
}

// dropWeb is a middlebox installed on the wire node only: it drops port
// 80 traffic, so the wire decisions depart from the simulator twin's.
type dropWeb struct{}

func (dropWeb) Name() string { return "drop-web" }
func (dropWeb) Silent() bool { return false }
func (dropWeb) Process(_ topology.NodeID, _ netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	var tip packet.TIP
	var ttp packet.TTP
	if tip.DecodeFrom(data) == nil && tip.Proto == packet.LayerTypeTTP &&
		ttp.DecodeFrom(tip.LayerPayload()) == nil && ttp.DstPort == 80 {
		return nil, netsim.Drop
	}
	return nil, netsim.Accept
}

func TestCorruptedPayloadIsAFailedOp(t *testing.T) {
	p := tinyParams(42)
	p.transit.mangle = flipLast{}
	p.mp.mangle = flipLast{}
	for name, run := range map[string]func() (*outcome, error){
		"wire-transit": func() (*outcome, error) { return runWireTransit(p.transit) },
		"mp-transfer":  func() (*outcome, error) { return runMPTransfer(p.mp) },
	} {
		o, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res := o.result(nil); res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted payloads passed: attempted=%d failed=%d", name, res.Attempted, res.Failed)
		}
	}
}

func TestWrongDecisionIsAFailedOp(t *testing.T) {
	p := tinyParams(42).mix
	p.wrong = dropWeb{}
	o, err := runForwardMix(p)
	if err != nil {
		t.Fatal(err)
	}
	if res := o.result(nil); res.Correct || res.Failed == 0 {
		t.Errorf("wrong decisions passed: attempted=%d failed=%d", res.Attempted, res.Failed)
	}
}

// exactMetrics are the per-layer metrics that must repeat exactly
// across traced runs at one seed.
var exactMetrics = []string{
	"netsim.hops_per_pkt", "netsim.delivered_ratio", "netsim.allocs_per_pkt", "netsim.dup_injected",
	"netsim.drop.corrupt", "netsim.drop.link-down", "netsim.drop.node-down", "netsim.drop.peer-down",
	"netsim.drop.queue-overflow", "netsim.drop.ttl", "netsim.drop.no-route", "netsim.drop.other",
	"sim.pending_max", "sim.pending_mean",
	"wire.rx_per_op", "wire.tx_per_op", "wire.drops_per_op", "wire.nopeer_per_op", "wire.send_errors",
	"wire.allocs_per_op",
	"policy.steps_per_eval", "wire.fastpath_share",
	"wire.decision.forward", "wire.decision.deliver", "wire.decision.drop", "wire.process_allocs_per_op",
	"multipath.allocs_per_segment",
}

// TestTracedRun checks that a traced run reports exactly the metrics
// BENCHMARK.json lists, and that the exact ones repeat.
func TestTracedRun(t *testing.T) {
	spec := struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}{}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var first result
	for i := 0; i < 2; i++ {
		res, traced, err := runTraced(tinyParams(7))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
		}
		if i == 0 {
			first = res
			var got, want []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			for _, m := range spec.PerLayer {
				want = append(want, m.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Errorf("traced metrics %v\nwant %v", got, want)
			}
			for j := range got {
				if j < len(want) && got[j] != want[j] {
					t.Errorf("traced metric %q, want %q", got[j], want[j])
				}
			}
			for name, e2e := range traced {
				for _, m := range spec.EndToEnd {
					if _, ok := e2e.(map[string]metric)[m.Name]; !ok && m.Name != "peak_rss_mb" {
						t.Errorf("%s: traced end-to-end metrics lack %s", name, m.Name)
					}
				}
			}
			continue
		}
		if raceEnabled {
			t.Log("-race build: allocation counts do not repeat; exact comparison skipped")
			break
		}
		for _, name := range exactMetrics {
			if a, b := first.Metrics[name], res.Metrics[name]; a != b {
				t.Errorf("%s: %v then %v", name, a.Value, b.Value)
			}
		}
	}
}
