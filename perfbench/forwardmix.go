package main

import (
	"fmt"
	"time"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// forward-mix: the middlebox chain, the policy VM and filter/decode do
// most of the work here and nowhere else. The node is node 2 of a
// 1-2-3-4 chain carrying a firewall, a redirector and a wiretap, with a
// compiled source-route admission policy.

// mixPolicy is the source-route admission policy node 2 compiles.
const mixPolicy = "paid && ttl > 1 && waypoint-provider < 100"

// mixBatch is the number of datagrams timed together.
const mixBatch = 256

// mixNode is the deciding node; mixTapSrc the provider the wiretap
// watches.
const (
	mixNode   = topology.NodeID(2)
	mixTapSrc = 5
)

// Corpus classes.
const (
	classClean = iota
	classSrcRoute
	classBlock
	classRedirect
	classTap
	classMalformed
	classTTL
	numClasses
)

// classKind is the decision each class must get.
var classKind = [numClasses]wire.DecisionKind{
	classClean:     wire.Forward,
	classSrcRoute:  wire.Forward,
	classBlock:     wire.Dropped,
	classRedirect:  wire.Deliver,
	classTap:       wire.Forward,
	classMalformed: wire.Dropped,
	classTTL:       wire.Dropped,
}

// processGroups are the per-class Process timings the traced run
// reports: the three middlebox classes share one.
var processGroups = []struct {
	name    string
	classes []int
}{
	{"clean", []int{classClean}},
	{"srcroute", []int{classSrcRoute}},
	{"mbox", []int{classBlock, classRedirect, classTap}},
	{"malformed", []int{classMalformed}},
	{"ttl", []int{classTTL}},
}

type mixEntry struct {
	class int
	data  []byte
	// dir is the direction node 2's middleboxes see the datagram in.
	dir netsim.Direction
	// bad marks an entry whose pre-timing checks failed.
	bad bool
}

type mixParams struct {
	seed   uint64
	dur    time.Duration
	corpus int
	setups int
	// traceOps is the traced pass's fixed op count.
	traceOps int
	// wrong, if set, is appended to the wire node's chain only, so the
	// wire decision departs from its simulator twin (the tests use it).
	wrong netsim.Middlebox
}

func defaultMixParams(seed uint64, dur time.Duration) mixParams {
	return mixParams{seed: seed, dur: dur, corpus: 8192, setups: 5, traceOps: 4 << 20}
}

// chainRoute is the 1-2-3-4 chain's routing: one hop toward the
// destination provider; provider 7 has no route and provider 8 routes to
// a node that is not a neighbor.
func chainRoute(id topology.NodeID) netsim.RouteFunc {
	return func(dst packet.Addr, _ *packet.TIP) (topology.NodeID, bool) {
		switch d := topology.NodeID(dst.Provider()); {
		case d == 7:
			return 0, false
		case d == 8:
			return 9, true
		case d == id:
			return id, true
		case d > id:
			return id + 1, true
		default:
			return id - 1, true
		}
	}
}

// mixChain is node 2's middlebox chain. Each engine gets its own
// instances; the benchmark keeps the wiretap to empty its capture log.
func mixChain() ([]netsim.Middlebox, *middlebox.Wiretap) {
	tap := &middlebox.Wiretap{Label: "tap", MatchSrc: mixTapSrc}
	return []netsim.Middlebox{
		&middlebox.PortFirewall{Label: "fw", BlockedPorts: map[uint16]bool{25: true}},
		&middlebox.Redirector{Label: "redir", MatchPort: 8080, To: packet.MakeAddr(uint16(mixNode), 99)},
		tap,
	}, tap
}

// mixCorpus draws the seeded corpus: about 70% clean transit, 15%
// source-routed, 10% middlebox hits and 5% malformed or TTL-expired, all
// with 16-byte payloads.
func mixCorpus(seed uint64, n int) ([]mixEntry, error) {
	rng := sim.NewRNG(seed)
	weights := []float64{70, 15, 10.0 / 3, 10.0 / 3, 10.0 / 3, 3, 2}
	out := make([]mixEntry, n)
	for i := range out {
		class := rng.Pick(weights)
		data, err := mixDatagram(class, rng)
		if err != nil {
			return nil, err
		}
		out[i] = mixEntry{class: class, data: data, dir: netsim.Forwarding}
		var tip packet.TIP
		if tip.DecodeFrom(data) == nil && topology.NodeID(tip.Dst.Provider()) == mixNode {
			out[i].dir = netsim.Delivering
		}
	}
	return out, nil
}

func mixDatagram(class int, rng *sim.RNG) ([]byte, error) {
	payload := make([]byte, 16)
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	host := func() uint16 { return uint16(1 + rng.Intn(200)) }
	// Transit traffic flows between providers 1 and 3/4 either way.
	src, dst := packet.MakeAddr(1, host()), packet.MakeAddr(uint16(3+rng.Intn(2)), host())
	if rng.Bool(0.5) {
		src, dst = dst, src
	}
	raw := func(tip *packet.TIP) ([]byte, error) {
		tip.Proto = packet.LayerTypeRaw
		return packet.Serialize(tip, &packet.Raw{Data: payload})
	}
	ttp := func(tip *packet.TIP, port uint16) ([]byte, error) {
		tip.Proto = packet.LayerTypeTTP
		return packet.Serialize(tip,
			&packet.TTP{SrcPort: 4000 + host(), DstPort: port, Next: packet.LayerTypeRaw},
			&packet.Raw{Data: payload})
	}
	ttl := uint8(8 + rng.Intn(56))
	switch class {
	case classClean:
		if rng.Bool(0.5) {
			return raw(&packet.TIP{TTL: ttl, Src: src, Dst: dst})
		}
		return ttp(&packet.TIP{TTL: ttl, Src: src, Dst: dst}, []uint16{80, 443, 53}[rng.Intn(3)])
	case classSrcRoute:
		tip := &packet.TIP{TTL: ttl, Src: packet.MakeAddr(4, host()), Dst: packet.MakeAddr(1, host()),
			SourceRoute: &packet.SourceRouteOption{Hops: []packet.Addr{packet.MakeAddr(uint16(3+rng.Intn(2)), 1)}}}
		if rng.Bool(0.5) {
			tip.Payment = &packet.PaymentOption{Payer: tip.Src, Payee: packet.MakeAddr(uint16(mixNode), 0),
				AmountMilli: uint32(1 + rng.Intn(100)), Nonce: uint32(rng.Uint64()), MAC: rng.Uint64()}
		}
		return raw(tip)
	case classBlock:
		return ttp(&packet.TIP{TTL: ttl, Src: src, Dst: dst}, 25)
	case classRedirect:
		return ttp(&packet.TIP{TTL: ttl, Src: src, Dst: dst}, 8080)
	case classTap:
		return ttp(&packet.TIP{TTL: ttl, Src: packet.MakeAddr(mixTapSrc, host()), Dst: dst}, 443)
	case classTTL:
		return raw(&packet.TIP{TTL: 1, Src: src, Dst: dst})
	}
	d, err := raw(&packet.TIP{TTL: ttl, Src: src, Dst: dst})
	if err != nil {
		return nil, err
	}
	switch rng.Intn(4) {
	case 0:
		d[6] ^= 0xff // checksum
	case 1:
		d[0] = 0x28 // version nibble 2
	case 2:
		d[2], d[3] = 0xff, 0xff // total length past the datagram
	default:
		d = d[:3] // truncated
	}
	return d, nil
}

// mixRig is the wire node under test and its corpus.
type mixRig struct {
	dp     *wire.Dataplane
	tap    *middlebox.Wiretap
	corpus []mixEntry
	bufs   [][]byte
	bad    int
}

// newMixRig draws the corpus, builds the wire node, and checks every
// datagram's decision against the simulator twin and against its class.
func newMixRig(p mixParams) (*mixRig, error) {
	corpus, err := mixCorpus(p.seed, p.corpus)
	if err != nil {
		return nil, err
	}
	pol, err := netsim.CompileSourceRoutePolicy(mixPolicy)
	if err != nil {
		return nil, err
	}
	chain, tap := mixChain()
	if p.wrong != nil {
		chain = append(chain, p.wrong)
	}
	r := &mixRig{
		dp: wire.NewDataplane(wire.NodeConfig{
			ID: mixNode, Route: chainRoute(mixNode), HonorSourceRoutes: true,
			SourceRoutePolicy: pol, Middleboxes: chain, Peers: []topology.NodeID{1, 3},
		}),
		tap:    tap,
		corpus: corpus,
		bufs:   make([][]byte, len(corpus)),
	}
	for i := range r.bufs {
		r.bufs[i] = make([]byte, len(corpus[i].data))
	}
	twin, sched, err := mixTwin()
	if err != nil {
		return nil, err
	}
	for i := range r.corpus {
		e := &r.corpus[i]
		dec := r.dp.Process(append([]byte(nil), e.data...))
		tr := twin.InjectArrival(mixNode, e.data)
		sched.Run()
		if dec.Kind != classKind[e.class] || dec.String() != twinDecision(tr, mixNode) {
			e.bad = true
			r.bad++
		}
	}
	tap.Captured = tap.Captured[:0]
	// Warm-up: one untimed pass.
	r.pass(0, len(r.corpus))
	return r, nil
}

// mixTwin is the simulator twin of the wire node: the 1-2-3-4 chain with
// node 2 configured from the same spec.
func mixTwin() (*netsim.Network, *sim.Scheduler, error) {
	sched := sim.NewScheduler()
	n := netsim.New(sched, topology.Linear(4, sim.Millisecond))
	for id := topology.NodeID(1); id <= 4; id++ {
		n.Node(id).Route = chainRoute(id)
	}
	nd := n.Node(mixNode)
	nd.HonorSourceRoutes = true
	if err := nd.SetSourceRoutePolicy(mixPolicy); err != nil {
		return nil, nil, err
	}
	chain, _ := mixChain()
	for _, m := range chain {
		nd.AddMiddlebox(m)
	}
	return n, sched, nil
}

// twinDecision reads node's decision off an InjectArrival trace in the
// wire.Decision.String vocabulary.
func twinDecision(tr *netsim.Trace, node topology.NodeID) string {
	if len(tr.Events) == 0 || tr.Events[0].Node != node {
		return "no decision"
	}
	switch ev := tr.Events[0]; ev.Action {
	case "deliver":
		return "deliver"
	case "drop":
		return "drop " + ev.Detail
	case "forward":
		// The simulator records the forward before the next-hop lookup;
		// a routing failure is a drop at the same node right after it.
		if len(tr.Events) < 2 {
			return "forward ?"
		}
		if nxt := tr.Events[1]; nxt.Action == "drop" && nxt.Node == node {
			return "drop " + nxt.Detail
		}
		return fmt.Sprintf("forward %d", tr.Events[1].Node)
	default:
		return ev.Action
	}
}

// pass decides n corpus datagrams starting at index from (wrapping),
// each copied into its receive buffer first as a receive would, and
// returns how many failed their check. It then empties the wiretap's
// capture log so memory stays flat.
func (r *mixRig) pass(from, n int) int {
	failed := 0
	for k := 0; k < n; k++ {
		i := (from + k) % len(r.corpus)
		e := &r.corpus[i]
		buf := r.bufs[i]
		copy(buf, e.data)
		if dec := r.dp.Process(buf); dec.Kind != classKind[e.class] || e.bad {
			failed++
		}
	}
	r.tap.Captured = r.tap.Captured[:0]
	return failed
}

// runForwardMix is the end-to-end run: one op is one datagram decided;
// op latency is timed per batch of mixBatch and divided by it.
func runForwardMix(p mixParams) (*outcome, error) {
	r, setup, err := setUp(p.setups, func() (*mixRig, error) { return newMixRig(p) }, func(*mixRig) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setup, lat: newSampler(), info: map[string]any{}}
	o.info["corpus"] = len(r.corpus)
	o.info["precheck_failed"] = r.bad
	start := time.Now()
	r.batches(o, func() bool { return time.Since(start) >= p.dur })
	return o, nil
}

// batches runs the timed loop, batch by batch, until done reports true.
func (r *mixRig) batches(o *outcome, done func() bool) {
	start := time.Now()
	for at := 0; !done(); at = (at + mixBatch) % len(r.corpus) {
		t0 := time.Now()
		f := r.pass(at, mixBatch)
		o.lat.record(float64(time.Since(t0).Nanoseconds())/1e3/mixBatch, mixBatch)
		o.attempted += mixBatch
		o.failed += int64(f)
	}
	o.timed = time.Since(start)
	o.ops = o.attempted - o.failed
}

// traceForwardMix is the traced pass: the batch loop for a fixed op
// count, then each layer timed from outside over the corpus — Process
// per class, the sanity filter, the decoder, the source-route policy
// (and its VM step count), each middlebox — plus the corpus's decision
// counts and the pinned allocation count of Process.
func traceForwardMix(p mixParams) (*outcome, error) {
	r, setup, err := setUp(1, func() (*mixRig, error) { return newMixRig(p) }, func(*mixRig) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setup, lat: newSampler(), layers: map[string]metric{}}
	r.batches(o, func() bool { return o.attempted >= int64(p.traceOps) })

	// Each layer loop below makes ops calls (a quarter of that per
	// Process class).
	ops := max(len(r.corpus), p.traceOps/4)
	for _, g := range processGroups {
		sub := &mixRig{dp: r.dp, tap: r.tap}
		for i, e := range r.corpus {
			for _, c := range g.classes {
				if e.class == c {
					sub.corpus = append(sub.corpus, e)
					sub.bufs = append(sub.bufs, r.bufs[i])
				}
			}
		}
		ns := 0.0
		if len(sub.corpus) > 0 {
			ns = nsPerOp(ops/4, func(n int) { sub.pass(0, n) })
		}
		o.layers["wire.process_ns."+g.name] = metric{ns, "ns"}
	}

	o.layers["packet.filter_ns"] = metric{nsPerOp(ops, func(n int) {
		for k := 0; k < n; k++ {
			packet.Filter(r.corpus[k%len(r.corpus)].data)
		}
	}), "ns"}
	var tip packet.TIP
	o.layers["packet.decode_ns"] = metric{nsPerOp(ops, func(n int) {
		for k := 0; k < n; k++ {
			_ = tip.DecodeReuse(r.corpus[k%len(r.corpus)].data)
		}
	}), "ns"}

	allow, steps, err := tracePolicy(r.corpus, ops)
	if err != nil {
		return nil, err
	}
	o.layers["policy.allow_ns"] = metric{allow, "ns"}
	o.layers["policy.steps_per_eval"] = metric{steps, "steps"}

	chain, tap := mixChain()
	for i, name := range []string{"middlebox.fw_ns", "middlebox.redir_ns", "middlebox.tap_ns"} {
		m := chain[i]
		o.layers[name] = metric{nsPerOp(ops, func(n int) {
			for k := 0; k < n; k++ {
				e := &r.corpus[k%len(r.corpus)]
				m.Process(mixNode, e.dir, e.data)
				if k%mixBatch == 0 {
					tap.Captured = tap.Captured[:0]
				}
			}
		}), "ns"}
	}

	var counts [3]int
	clean := 0
	for _, e := range r.corpus {
		buf := append([]byte(nil), e.data...)
		counts[r.dp.Process(buf).Kind]++
		if e.class == classClean {
			clean++
		}
	}
	r.tap.Captured = r.tap.Captured[:0]
	o.layers["wire.fastpath_share"] = metric{float64(clean) / float64(len(r.corpus)), "ratio"}
	o.layers["wire.decision.forward"] = metric{float64(counts[wire.Forward]), "count"}
	o.layers["wire.decision.deliver"] = metric{float64(counts[wire.Deliver]), "count"}
	o.layers["wire.decision.drop"] = metric{float64(counts[wire.Dropped]), "count"}
	o.layers["wire.process_allocs_per_op"] = metric{allocsPerOp(allocRuns, len(r.corpus), func() {
		r.pass(0, len(r.corpus))
	}), "allocs/op"}
	return o, nil
}

// tracePolicy times SourceRoutePolicy.Allow over the source-routed
// datagrams and counts the VM steps one evaluation of the same text
// takes through policy.CompileText and RunSlots.
func tracePolicy(corpus []mixEntry, ops int) (allowNS, stepsPerEval float64, err error) {
	pol, err := netsim.CompileSourceRoutePolicy(mixPolicy)
	if err != nil {
		return 0, 0, err
	}
	prog, err := policy.CompileText(mixPolicy)
	if err != nil {
		return 0, 0, err
	}
	type evalCase struct {
		tip packet.TIP
		wp  packet.Addr
	}
	var cases []evalCase
	for _, e := range corpus {
		if e.class != classSrcRoute {
			continue
		}
		var c evalCase
		if err := c.tip.DecodeFrom(e.data); err != nil {
			return 0, 0, err
		}
		c.tip.TTL-- // both engines evaluate after the TTL decrement
		c.wp, _ = packet.PeekSourceRoute(e.data)
		cases = append(cases, c)
	}
	if len(cases) == 0 {
		return 0, 0, nil
	}
	scratch := pol.NewScratch()
	allowNS = nsPerOp(ops, func(n int) {
		for k := 0; k < n; k++ {
			c := &cases[k%len(cases)]
			pol.Allow(scratch, &c.tip, c.wp)
		}
	})
	slots := make([]policy.Value, len(prog.Attrs()))
	var steps int64
	for i := range cases {
		c := &cases[i]
		for j, name := range prog.Attrs() {
			switch name {
			case "paid":
				slots[j] = policy.Bool(c.tip.Payment != nil)
			case "ttl":
				slots[j] = policy.Num(float64(c.tip.TTL))
			default: // waypoint-provider
				slots[j] = policy.Num(float64(c.wp.Provider()))
			}
		}
		b := policy.NewBudget(netsim.SourceRoutePolicySteps, netsim.SourceRoutePolicySteps)
		if _, err := prog.RunSlots(slots, &b); err != nil {
			return 0, 0, err
		}
		steps += b.StepsUsed()
	}
	return allowNS, float64(steps) / float64(len(cases)), nil
}
