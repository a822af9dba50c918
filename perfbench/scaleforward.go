package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"time"

	"repro/internal/scale"
	"repro/internal/sim"
	"repro/internal/topology"
)

// scale-forward: the scheduler heap and the netsim forwarding hop do
// most of the drain work, and route-table build is most of set-up, at a
// working set far larger than cache. No socket, policy, middlebox or
// multipath code runs.

// scaleSlice is the simulated time one RunUntil call advances.
const scaleSlice = 100 * sim.Microsecond

// scaleDropReasons are the netsim drop reasons the traced run reports
// by name; any other reason is summed under netsim.drop.other.
var scaleDropReasons = []string{"corrupt", "link-down", "node-down", "peer-down", "queue-overflow", "ttl", "no-route"}

type scaleParams struct {
	seed uint64
	dur  time.Duration
	// nodes is the topology size; checkNodes the size of the
	// slice-versus-uninterrupted digest check run every time.
	nodes, checkNodes int
	// setups is how many times the scenario is built; the last build
	// is drained.
	setups int
}

func defaultScaleParams(seed uint64, dur time.Duration) scaleParams {
	return scaleParams{seed: seed, dur: dur, nodes: 100_000, checkNodes: 2_000, setups: 3}
}

// scaleConfig is the scale-forward scenario: M=2, default sinks
// (nodes/500), 64 B payloads, 10 packets per node over the default
// 200 ms horizon, seeded chaos on, one shard.
func scaleConfig(nodes int, seed uint64) scale.Config {
	return scale.Config{Nodes: nodes, M: 2, Seed: seed, Shards: 1, Chaos: true}
}

// resolved is the number of packets delivered or dropped so far.
func resolved(sm *scale.Sim) int { return sm.S.Delivered() + sm.S.Dropped() }

// pending is the number of live events across the shard schedulers.
func pending(sm *scale.Sim) int {
	n := 0
	for _, sh := range sm.S.Shards {
		n += sh.Sched.Pending()
	}
	return n
}

// slicer drains a prepared scenario in fixed simulated slices.
type slicer struct {
	sm   *scale.Sim
	next sim.Time
}

// step runs one slice and reports its wall time, the packets it
// resolved, and whether events remain.
func (s *slicer) step() (time.Duration, int, bool) {
	before := resolved(s.sm)
	t0 := time.Now()
	s.sm.S.RunUntil(s.next)
	d := time.Since(t0)
	s.next += scaleSlice
	return d, resolved(s.sm) - before, pending(s.sm) > 0
}

// finish drains what is left and returns the run's digest result.
func (s *slicer) finish() *scale.Result {
	for more := pending(s.sm) > 0; more; {
		_, _, more = s.step()
	}
	return sliceResult(s.sm)
}

// sliceResult summarizes a drained scenario exactly as scale.Sim.Run
// does, so Render digests compare byte for byte.
func sliceResult(sm *scale.Sim) *scale.Result {
	return &scale.Result{
		Config:     sm.Cfg,
		Nodes:      len(sm.G.Nodes),
		Links:      len(sm.G.Links),
		CrossLinks: sm.S.Part.CrossLinks(sm.G),
		Window:     sm.S.Window,
		Delivered:  sm.S.Delivered(),
		Dropped:    sm.S.Dropped(),
		Processed:  sm.S.Processed(),
		Stats:      sm.S.Stats(),
	}
}

// drainBySlices drains cfg's scenario in slices and returns its digest.
func drainBySlices(cfg scale.Config) string {
	s := &slicer{sm: scale.Prepare(cfg)}
	return s.finish().Render()
}

// conservationMisses is how far delivered+dropped is from the packets
// injected (sent plus impairment duplicates).
func conservationMisses(r *scale.Result) int64 {
	injected := r.Config.Packets + r.Stats["dup-injected"]
	d := int64(r.Delivered+r.Dropped) - int64(injected)
	if d < 0 {
		d = -d
	}
	return d
}

// runScaleForward is the end-to-end run: one op is one packet resolved
// (delivered or dropped); an op's latency is its slice's wall time
// divided by the packets the slice resolved.
func runScaleForward(p scaleParams) (*outcome, error) {
	sm, setup, err := setUp(p.setups, func() (*scale.Sim, error) {
		return scale.Prepare(scaleConfig(p.nodes, p.seed)), nil
	}, func(*scale.Sim) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setup, lat: newSampler(), info: map[string]any{}}
	s := &slicer{sm: sm}
	start := time.Now()
	for more := true; more && time.Since(start) < p.dur; {
		var d time.Duration
		var n int
		d, n, more = s.step()
		if n > 0 {
			o.ops += int64(n)
			o.lat.record(float64(d.Nanoseconds())/1e3/float64(n), n)
		}
	}
	o.timed = time.Since(start)
	o.attempted = o.ops

	res := s.finish()
	o.failed += conservationMisses(res)
	digest := sha256.Sum256([]byte(res.Render()))
	o.info["digest_sha256"] = hex.EncodeToString(digest[:])
	o.info["packets"] = res.Config.Packets
	// The slice-driven drain must agree with an uninterrupted run.
	small := scaleConfig(p.checkNodes, p.seed)
	if drainBySlices(small) != scale.Run(small).Render() {
		o.failed++
		o.info["slice_digest_mismatch"] = true
	}
	return o, nil
}

// traceScaleForward is the traced pass: set-up split into topology
// generation and the rest, then a full drain pinned to one P, sampling
// slice times and scheduler depth per slice and counting allocations
// and GC cycles over the whole drain.
func traceScaleForward(p scaleParams) (*outcome, error) {
	o := &outcome{lat: newSampler(), layers: map[string]metric{}}
	var gen, rest []float64
	sm, setup, err := setUp(p.setups, func() (*scale.Sim, error) {
		t0 := time.Now()
		topology.GenerateScaleFree(p.nodes, 2, sim.NewRNG(p.seed))
		t1 := time.Now()
		sm := scale.Prepare(scaleConfig(p.nodes, p.seed))
		gen = append(gen, t1.Sub(t0).Seconds())
		rest = append(rest, time.Since(t1).Seconds()-t1.Sub(t0).Seconds())
		return sm, nil
	}, func(*scale.Sim) {})
	if err != nil {
		return nil, err
	}
	o.setup = setup
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.layers["topology.generate_s"] = metric{median(gen), "s"}
	o.layers["scale.prepare_s"] = metric{median(rest), "s"}
	o.layers["scale.heap_mb_setup"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB"}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := &slicer{sm: sm}
	slices := make([]float64, 0, 1<<14)
	var pendMax, pendSum, samples int64
	start := time.Now()
	for more := true; more; {
		var d time.Duration
		var n int
		d, n, more = s.step()
		slices = append(slices, float64(d.Nanoseconds())/1e3)
		if n > 0 {
			o.ops += int64(n)
			o.lat.record(float64(d.Nanoseconds())/1e3/float64(n), n)
		}
		pd := int64(pending(sm))
		pendMax = max(pendMax, pd)
		pendSum += pd
		samples++
	}
	o.timed = time.Since(start)
	runtime.ReadMemStats(&after)
	o.attempted = o.ops

	res := sliceResult(sm)
	o.failed += conservationMisses(res)
	tot := float64(res.Delivered + res.Dropped)
	o.layers["netsim.slice_p50_us"] = metric{quantile(slices, 0.5), "us"}
	o.layers["netsim.slice_p90_us"] = metric{quantile(slices, 0.9), "us"}
	o.layers["netsim.hops_per_pkt"] = metric{float64(res.Processed) / tot, "events/pkt"}
	o.layers["netsim.delivered_ratio"] = metric{float64(res.Delivered) / tot, "ratio"}
	o.layers["netsim.allocs_per_pkt"] = metric{float64(after.Mallocs-before.Mallocs) / tot, "allocs/pkt"}
	o.layers["netsim.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	o.layers["sim.pending_max"] = metric{float64(pendMax), "events"}
	o.layers["sim.pending_mean"] = metric{float64(pendSum) / float64(samples), "events"}
	o.layers["netsim.dup_injected"] = metric{float64(res.Stats["dup-injected"]), "count"}
	other := 0
	for k, v := range res.Stats {
		if len(k) > 5 && k[:5] == "drop:" {
			other += v
		}
	}
	for _, r := range scaleDropReasons {
		n := res.Stats["drop:"+r]
		o.layers["netsim.drop."+r] = metric{float64(n), "count"}
		other -= n
	}
	o.layers["netsim.drop.other"] = metric{float64(other), "count"}
	return o, nil
}
