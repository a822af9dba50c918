package wire

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The differential harness: identical TIP bytes fed to the live
// engine's decision kernel and to the simulator (via InjectArrival at
// the same node) must produce byte-identical decision logs — deliver,
// forward to the same next hop, or drop with the same reason string,
// including packets the wire sanity filter rejects. The log is also
// pinned against a committed golden file (testdata/golden_decisions.txt;
// regenerate with WIRE_GOLDEN_REGEN=1 go test ./internal/wire -run
// Differential) so either engine drifting from the recorded decisions
// fails loudly even if they drift together.

// garbler is a deterministic, stateless middlebox that rewrites
// matching traffic into undecodable bytes — the malformed-after drop
// path, which no real middlebox in the repo produces.
type garbler struct{}

func (garbler) Name() string { return "garbler" }
func (garbler) Silent() bool { return false }
func (garbler) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil {
		return nil, netsim.Accept
	}
	if tip.TOS != 0x77 {
		return nil, netsim.Accept
	}
	return []byte{0xDE, 0xAD}, netsim.Accept
}

// diffChain builds the middlebox chain under test. Each engine gets its
// own instances (stateful devices are not shareable); both are built
// from this one spec.
func diffChain() []netsim.Middlebox {
	return []netsim.Middlebox{
		&middlebox.PortFirewall{Label: "fw", BlockedPorts: map[uint16]bool{25: true}},
		&middlebox.PortFirewall{Label: "ghost", BlockedPorts: map[uint16]bool{6667: true}, Quiet: true},
		&middlebox.Redirector{Label: "redir", MatchPort: 8080, To: packet.MakeAddr(2, 99)},
		&middlebox.Wiretap{Label: "tap", MatchSrc: 1},
		garbler{},
	}
}

// diffSim builds the simulator twin: a 1-2-3-4 chain with node 2
// carrying the chain under test and the same routing pathologies as
// testNodeConfig.
func diffSim(t *testing.T) (*netsim.Network, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	g := topology.Linear(4, sim.Millisecond)
	n := netsim.New(sched, g)
	for id := topology.NodeID(1); id <= 4; id++ {
		n.Node(id).Route = chainRoute(id)
	}
	nd := n.Node(2)
	nd.HonorSourceRoutes = true
	nd.RequirePaymentForSourceRoute = true
	for _, m := range diffChain() {
		nd.AddMiddlebox(m)
	}
	return n, sched
}

// simDecision extracts node 2's decision from an InjectArrival trace,
// in the shared vocabulary.
func simDecision(t *testing.T, tr *netsim.Trace, node topology.NodeID) string {
	t.Helper()
	if len(tr.Events) == 0 {
		t.Fatalf("trace recorded no events: %+v", tr)
	}
	ev := tr.Events[0]
	if ev.Node != node {
		t.Fatalf("first decision at node %d, want %d: %+v", ev.Node, node, tr)
	}
	switch ev.Action {
	case "deliver":
		return "deliver"
	case "drop":
		return "drop " + ev.Detail
	case "forward":
		if len(tr.Events) < 2 {
			t.Fatalf("forward with no subsequent hop: %+v", tr)
		}
		// The simulator records the forward event before the next-hop
		// lookup; a routing failure is a drop at the same node right
		// after it.
		if nxt := tr.Events[1]; nxt.Action == "drop" && nxt.Node == node {
			return "drop " + nxt.Detail
		}
		return fmt.Sprintf("forward %d", tr.Events[1].Node)
	default:
		t.Fatalf("unexpected first action %q", ev.Action)
		return ""
	}
}

// goldenStream is the byte-stream corpus: clean traffic, malformed
// datagrams, middlebox-rewritten cases, and policy edges — every
// decision path the two engines share.
func goldenStream(t *testing.T) []struct {
	name string
	data []byte
} {
	t.Helper()
	src := packet.MakeAddr(1, 1)
	srcRouted := func(pay bool, host uint16) []byte {
		tip := &packet.TIP{
			TTL: 16, Proto: packet.LayerTypeRaw,
			Src: packet.MakeAddr(4, 1), Dst: packet.MakeAddr(1, host),
			SourceRoute: &packet.SourceRouteOption{Hops: []packet.Addr{packet.MakeAddr(3, 1)}},
		}
		if pay {
			tip.Payment = &packet.PaymentOption{Payer: tip.Src, Payee: packet.MakeAddr(2, 0), AmountMilli: 5, Nonce: 1, MAC: 9}
		}
		data, err := packet.Serialize(tip, &packet.Raw{Data: []byte("sr")})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	badck := rawPkt(t, src, packet.MakeAddr(4, 1), 16, "ck")
	badck[6] ^= 0xff
	badver := rawPkt(t, src, packet.MakeAddr(4, 1), 16, "vv")
	badver[0] = 0x28 // version nibble 2: sanity-filter reject
	garbled := func() []byte {
		data, err := packet.Serialize(
			&packet.TIP{TTL: 16, TOS: 0x77, Proto: packet.LayerTypeRaw, Src: src, Dst: packet.MakeAddr(4, 1)},
			&packet.Raw{Data: []byte("gg")})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}()
	return []struct {
		name string
		data []byte
	}{
		{"clean-transit", rawPkt(t, src, packet.MakeAddr(4, 1), 16, "hello")},
		{"clean-deliver", rawPkt(t, src, packet.MakeAddr(2, 5), 16, "local")},
		{"clean-downstream", rawPkt(t, packet.MakeAddr(4, 2), packet.MakeAddr(1, 7), 16, "back")},
		{"blocked-smtp", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(4, 1)}, 25, "MAIL")},
		{"silent-irc", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(4, 1)}, 6667, "irc")},
		{"redirected-web", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(4, 1)}, 8080, "GET")},
		{"tapped-https", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(4, 1)}, 443, "tls")},
		{"garbled-rewrite", garbled},
		{"ttl-expired", rawPkt(t, src, packet.MakeAddr(4, 1), 1, "old")},
		{"no-route", rawPkt(t, src, packet.MakeAddr(7, 1), 16, "lost")},
		{"bad-next-hop", rawPkt(t, src, packet.MakeAddr(8, 1), 16, "off")},
		{"srcroute-paid", srcRouted(true, 9)},
		{"srcroute-unpaid", srcRouted(false, 9)},
		{"truncated", []byte{0x18, 0x00, 0x00}},
		{"empty", nil},
		{"bad-version", badver},
		{"bad-checksum", badck},
		{"oversized-total", func() []byte {
			d := rawPkt(t, src, packet.MakeAddr(4, 1), 16, "sz")
			d[2], d[3] = 0xFF, 0xFF // total length past the datagram
			return d
		}()},
	}
}

func TestDifferentialDecisions(t *testing.T) {
	n, sched := diffSim(t)
	dp := NewDataplane(testNodeConfig(diffChain()))

	var log strings.Builder
	for _, pkt := range goldenStream(t) {
		// The wire engine patches bytes in place; both engines get a
		// private copy, as they would from their own receive paths.
		wireGot := dp.Process(append([]byte(nil), pkt.data...)).String()
		tr := n.InjectArrival(2, pkt.data)
		sched.Run()
		simGot := simDecision(t, tr, 2)
		if wireGot != simGot {
			t.Errorf("%s: live engine decided %q, simulator decided %q", pkt.name, wireGot, simGot)
		}
		fmt.Fprintf(&log, "%s %s\n", pkt.name, wireGot)
	}

	const goldenPath = "testdata/golden_decisions.txt"
	if os.Getenv("WIRE_GOLDEN_REGEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(log.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden decision log: %v (regenerate with WIRE_GOLDEN_REGEN=1)", err)
	}
	if log.String() != string(want) {
		t.Fatalf("decision log drifted from golden:\n--- got ---\n%s--- want ---\n%s", log.String(), want)
	}
}

// TestDropKindReasonContract checks the drop vocabulary exhaustively:
// every drop kind is produced by some packet of the golden corpus, every
// reason emitted under a kind is the kind's String (or, for the
// per-device kinds, that String and ":<device>"), and the committed
// golden log records each such reason.
func TestDropKindReasonContract(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_decisions.txt")
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDataplane(testNodeConfig(diffChain()))
	reasons := make([][]string, DropKinds)
	for _, pkt := range goldenStream(t) {
		if dec := dp.Process(append([]byte(nil), pkt.data...)); dec.Kind == Dropped {
			reasons[dec.Drop] = append(reasons[dec.Drop], dec.Reason)
		}
	}
	for k := DropKind(0); k < DropKinds; k++ {
		if len(reasons[k]) == 0 {
			t.Errorf("drop kind %v: no packet in the golden corpus is dropped with it", k)
		}
		for _, r := range reasons[k] {
			if r != k.String() && !strings.HasPrefix(r, k.String()+":") {
				t.Errorf("drop kind %v emitted reason %q", k, r)
			}
			if !strings.Contains(string(golden), " drop "+r+"\n") {
				t.Errorf("drop kind %v: reason %q is not in the golden decision log", k, r)
			}
		}
	}
}

// TestDifferentialStateful pins the agreement for a stateful rewrite
// sequence: a NAT translating an outbound flow, then un-translating the
// reply — both engines must evolve the NAT state identically because
// they see the identical packet order.
func TestDifferentialStateful(t *testing.T) {
	public := packet.MakeAddr(2, 1)
	mkChain := func() []netsim.Middlebox {
		return []netsim.Middlebox{middlebox.NewNAT("nat", public)}
	}
	sched := sim.NewScheduler()
	g := topology.Linear(4, sim.Millisecond)
	n := netsim.New(sched, g)
	for id := topology.NodeID(1); id <= 4; id++ {
		n.Node(id).Route = chainRoute(id)
	}
	for _, m := range mkChain() {
		n.Node(2).AddMiddlebox(m)
	}
	cfg := testNodeConfig(mkChain())
	cfg.HonorSourceRoutes = false
	cfg.RequirePaymentForSourceRoute = false
	dp := NewDataplane(cfg)

	// The NAT rewrites only Sending/Delivering traffic; a transit
	// arrival, then a delivery addressed to the public address, must
	// take the same decisions in both engines (the delivery's port is
	// unmapped, so it passes through untranslated — state agreement is
	// what's pinned, not a translation).
	stream := [][]byte{
		ttpPkt(t, packet.TIP{TTL: 16, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1)}, 80, "out"),
		ttpPkt(t, packet.TIP{TTL: 16, Src: packet.MakeAddr(4, 1), Dst: public}, 40000, "in"),
	}
	for i, data := range stream {
		wireGot := dp.Process(append([]byte(nil), data...)).String()
		tr := n.InjectArrival(2, data)
		sched.Run()
		if simGot := simDecision(t, tr, 2); wireGot != simGot {
			t.Errorf("packet %d: live %q vs sim %q", i, wireGot, simGot)
		}
	}
}
