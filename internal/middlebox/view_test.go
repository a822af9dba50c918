package middlebox_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/trust"
	"repro/internal/wire"
)

// The devices classify in one body over the kernel's decoded view
// (ProcessPacket); their byte entry (Process) decodes and calls it. These
// tests pin that the two entries cannot drift apart, and that neither
// costs allocations it should not.

// viewNode is the node every check runs the devices at.
const viewNode = topology.NodeID(2)

// directions are the three a kernel hands a chain.
var directions = []netsim.Direction{netsim.Forwarding, netsim.Delivering, netsim.Sending}

// viewDevice is one converted device under check: build returns a fresh
// instance and a snapshot of its counters. Each check builds two
// identical instances, one per entry, and feeds both the same sequence.
type viewDevice struct {
	name  string
	build func(tb testing.TB) (netsim.Middlebox, func() string)
}

// viewPolicy reads every attribute of the firewall's vocabulary, and
// one outside it (evaluation errors are counted too); cleanPolicy is the
// same without that rule, since a rule error costs allocations.
const (
	viewPolicy = `policy "view" {` + viewRules + `    rule beyond { when geo == "mars" then deny }
    default permit
}`
	cleanPolicy = `policy "clean" {` + viewRules + `    default permit
}`
	viewRules = `
    rule anon { when identity-scheme == "anonymous" then deny "anonymous" }
    rule bad { when identity == "badguy" then deny }
    rule smtp { when port == 25 && direction == "inbound" then deny }
    rule opaque { when encrypted && !inspectable then deny }
    rule tunnel { when tunneled && direction == "transit" then deny }
    rule paid { when has-payment && tos > 3 then deny }
    rule pair { when src-provider == 3 && dst-provider == 4 && src-port < 100 then deny }
    rule outbound { when direction == "outbound" && port == 8080 then deny }
`
)

const pinholePolicy = `policy "pinholes" {
    rule no-anon { when identity-scheme == "anonymous" || identity-scheme == "none" then deny }
    rule no-privileged { when requested-port < 1024 then deny }
    rule reputable { when reputation >= 0.5 then permit }
    default deny "insufficient reputation"
}`

func parsePolicy(tb testing.TB, text string) *policy.Document {
	tb.Helper()
	doc, err := policy.Parse(text)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

func reputation() *trust.Reputation {
	rep := trust.NewReputation("rep", 1.0)
	for i := 0; i < 10; i++ {
		rep.Report("goodguy", true, nil)
		rep.Report("alice", true, nil)
		rep.Report("badguy", false, nil)
	}
	return rep
}

func hits(n *int) func() string { return func() string { return fmt.Sprint(*n) } }

// viewDevices lists every in-tree device with a decoded-view entry, in
// the configurations that reach each of its branches.
func viewDevices() []viewDevice {
	port := func(inbound bool) func(testing.TB) (netsim.Middlebox, func() string) {
		return func(testing.TB) (netsim.Middlebox, func() string) {
			f := &middlebox.PortFirewall{Label: "fw", BlockedPorts: map[uint16]bool{25: true, 8080: true}, BlockInbound: inbound}
			return f, hits(&f.Hits)
		}
	}
	trustFW := func(anon bool) func(testing.TB) (netsim.Middlebox, func() string) {
		return func(testing.TB) (netsim.Middlebox, func() string) {
			f := &middlebox.TrustFirewall{Label: "tfw", MinScore: 0.5, Rep: reputation(), AllowAnonymous: anon}
			return f, hits(&f.Hits)
		}
	}
	tap := func(src uint16) func(testing.TB) (netsim.Middlebox, func() string) {
		return func(testing.TB) (netsim.Middlebox, func() string) {
			w := &middlebox.Wiretap{Label: "tap", MatchSrc: src}
			// Checked after every packet, so the newest capture and the
			// count pin the whole log.
			return w, func() string {
				if len(w.Captured) == 0 {
					return "0"
				}
				return fmt.Sprint(len(w.Captured), w.Captured[len(w.Captured)-1])
			}
		}
	}
	enc := func(inspectable bool) func(testing.TB) (netsim.Middlebox, func() string) {
		return func(testing.TB) (netsim.Middlebox, func() string) {
			e := &middlebox.EncryptionBlocker{Label: "enc", AllowInspectable: inspectable}
			return e, hits(&e.Hits)
		}
	}
	impair := func(port uint16) func(testing.TB) (netsim.Middlebox, func() string) {
		return func(testing.TB) (netsim.Middlebox, func() string) {
			p := &wire.PathImpairment{PathID: 2, Port: port}
			p.SetEnabled(true)
			return p, func() string { return fmt.Sprint(p.Dropped()) }
		}
	}
	return []viewDevice{
		{"port-firewall", port(false)},
		{"port-firewall-inbound", port(true)},
		{"trust-firewall", trustFW(false)},
		{"trust-firewall-anonymous", trustFW(true)},
		{"policy-firewall", func(tb testing.TB) (netsim.Middlebox, func() string) {
			f := &middlebox.PolicyFirewall{Label: "pfw", Doc: parsePolicy(tb, viewPolicy)}
			return f, func() string { return fmt.Sprint(f.Hits, f.Errors) }
		}},
		{"nat", func(testing.TB) (netsim.Middlebox, func() string) {
			n := middlebox.NewNAT("nat", packet.MakeAddr(2, 1))
			return n, hits(&n.Translations)
		}},
		{"redirector", func(testing.TB) (netsim.Middlebox, func() string) {
			r := &middlebox.Redirector{Label: "redir", MatchPort: 8080, To: packet.MakeAddr(2, 99)}
			return r, hits(&r.Redirected)
		}},
		{"wiretap", tap(0)},
		{"wiretap-src", tap(3)},
		{"encryption-blocker", enc(false)},
		{"encryption-blocker-inspectable", enc(true)},
		{"negotiable-firewall", func(tb testing.TB) (netsim.Middlebox, func() string) {
			f := &middlebox.NegotiableFirewall{Label: "nfw", Doc: parsePolicy(tb, pinholePolicy), Rep: reputation(),
				AlwaysOpen: map[uint16]bool{80: true}}
			return f, func() string {
				var open []int
				for p := range f.Pinholes() {
					open = append(open, int(p))
				}
				sort.Ints(open)
				return fmt.Sprint(f.Requests, f.Granted, f.Denied, f.Hits, open)
			}
		}},
		{"link-arq", func(testing.TB) (netsim.Middlebox, func() string) {
			net := netsim.New(sim.NewScheduler(), topology.Linear(2, sim.Millisecond))
			resends := new(int)
			transport.InstallLinkARQ(net, 1, 0.4, 2, sim.NewRNG(7), resends)
			return net.Node(1).Middleboxes[0], hits(resends)
		}},
		{"lossy-link", func(testing.TB) (netsim.Middlebox, func() string) {
			net := netsim.New(sim.NewScheduler(), topology.Linear(2, sim.Millisecond))
			l := transport.InstallLossyLink(net, 1, 0.4, sim.NewRNG(7))
			return l, hits(&l.Lost)
		}},
		{"path-impairment", impair(0)},
		{"path-impairment-port", impair(7777)},
	}
}

// viewDatagram draws one datagram of the check corpus: raw, TTP, crypto
// and tunnel payloads under every option mix, plus undecodable TTP
// headers and (about one in twelve) undecodable TIP headers.
func viewDatagram(rng *sim.RNG) []byte {
	addr := func() packet.Addr { return packet.MakeAddr(uint16(1+rng.Intn(5)), uint16(1+rng.Intn(3))) }
	tip := &packet.TIP{TTL: uint8(1 + rng.Intn(64)), TOS: uint8(rng.Intn(8)), Src: addr(), Dst: addr()}
	if rng.Bool(0.3) {
		sr := &packet.SourceRouteOption{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			sr.Hops = append(sr.Hops, addr())
		}
		sr.Ptr = uint8(rng.Intn(len(sr.Hops) + 1))
		tip.SourceRoute = sr
	}
	if rng.Bool(0.25) {
		tip.Payment = &packet.PaymentOption{Payer: tip.Src, Payee: addr(), AmountMilli: uint32(rng.Intn(100)), Nonce: uint32(rng.Uint64()), MAC: rng.Uint64()}
	}
	if rng.Bool(0.4) {
		ids := [][]byte{nil, []byte("goodguy"), []byte("badguy"), []byte("alice"), {0xde, 0xad, 0xbe, 0xef}}
		tip.Identity = &packet.IdentityOption{Scheme: uint8(rng.Intn(3)), ID: ids[rng.Intn(len(ids))]}
	}
	body := make([]byte, rng.Intn(24))
	for i := range body {
		body[i] = byte(rng.Intn(256))
	}
	cryptoLayer := func() []byte {
		c := &packet.Crypto{Nonce: rng.Uint64()}
		if rng.Bool(0.5) {
			c.Flags = packet.CryptoInspectable
		}
		c.Seal([]byte("k"), body, packet.LayerTypeRaw)
		out, err := packet.Serialize(c)
		if err != nil {
			panic(err)
		}
		if rng.Bool(0.2) {
			out = out[:rng.Intn(len(out))] // a crypto header that does not decode
		}
		return out
	}
	tunnelLayer := func() []byte {
		out, err := packet.Serialize(&packet.Tunnel{Inner: packet.LayerTypeTIP, ID: uint16(rng.Intn(9))}, &packet.Raw{Data: body})
		if err != nil {
			panic(err)
		}
		return out
	}
	ports := []uint16{25, 80, 443, 8080, middlebox.ControlPort, 7777, 40000, 40001, 40002, uint16(rng.Intn(1 << 16))}
	ttp := &packet.TTP{
		SrcPort: []uint16{53, 1234, 50000, uint16(rng.Intn(1 << 16))}[rng.Intn(4)],
		DstPort: ports[rng.Intn(len(ports))],
		Flags:   []uint8{0, 0, packet.FlagSYN, packet.FlagACK}[rng.Intn(4)],
		Window:  uint16(rng.Intn(4)),
		Seq:     uint32(rng.Uint64()),
		Next:    packet.LayerTypeRaw,
	}
	inner := body
	switch k := rng.Intn(8); k {
	case 0, 1: // raw
		tip.Proto = packet.LayerTypeRaw
		ttp = nil
	case 2: // TIP-level crypto
		tip.Proto, inner, ttp = packet.LayerTypeCrypto, cryptoLayer(), nil
	case 3: // TIP-level tunnel
		tip.Proto, inner, ttp = packet.LayerTypeTunnel, tunnelLayer(), nil
	case 4: // TTP over crypto
		tip.Proto, ttp.Next, inner = packet.LayerTypeTTP, packet.LayerTypeCrypto, cryptoLayer()
	case 5: // TTP over a tunnel
		tip.Proto, ttp.Next, inner = packet.LayerTypeTTP, packet.LayerTypeTunnel, tunnelLayer()
	case 6: // a TTP header too short to decode
		tip.Proto, ttp, inner = packet.LayerTypeTTP, nil, body[:min(len(body), 15)]
	default: // TTP, raw payload; control-port requests carry a port
		tip.Proto = packet.LayerTypeTTP
		if ttp.DstPort == middlebox.ControlPort && rng.Bool(0.8) {
			p := []uint16{22, 7777, 8443}[rng.Intn(3)]
			inner = []byte{byte(p >> 8), byte(p)}
		}
	}
	layers := []packet.SerializableLayer{tip}
	if ttp != nil {
		layers = append(layers, ttp)
	}
	out, err := packet.Serialize(append(layers, &packet.Raw{Data: inner})...)
	if err != nil {
		panic(err)
	}
	if rng.Bool(1.0 / 12) {
		switch rng.Intn(3) {
		case 0:
			out[6] ^= 0x5a // checksum
		case 1:
			out = out[:rng.Intn(16)] // truncated header
		default:
			out[0] = 0x20 | out[0]&0x0f // version 2
		}
	}
	return out
}

func viewCorpus(seed uint64, n int) [][]byte {
	rng := sim.NewRNG(seed)
	out := make([][]byte, n)
	for i := range out {
		out[i] = viewDatagram(rng)
	}
	return out
}

// viewPair is one device built twice: bytes takes the byte entry, view
// the decoded-view entry.
type viewPair struct {
	name                string
	bytes               netsim.Middlebox
	view                netsim.PacketMiddlebox
	bytesSnap, viewSnap func() string
}

func buildPairs(tb testing.TB) []viewPair {
	var pairs []viewPair
	for _, d := range viewDevices() {
		b, bs := d.build(tb)
		v, vs := d.build(tb)
		pm, ok := v.(netsim.PacketMiddlebox)
		if !ok {
			tb.Fatalf("%s has no decoded-view entry", d.name)
		}
		pairs = append(pairs, viewPair{d.name, b, pm, bs, vs})
	}
	return pairs
}

// kernelView decodes data the way the forwarding kernel does — into a
// scratch header reused across packets — and returns the view the
// kernel binds, or false when the kernel would drop data as malformed.
type kernelView struct{ tip packet.TIP }

func (k *kernelView) bind(data []byte) (netsim.Packet, bool) {
	if packet.Filter(data) != packet.FilterAccept || k.tip.DecodeReuse(data) != nil {
		return netsim.Packet{}, false
	}
	return netsim.Packet{Data: data, TIP: &k.tip}, true
}

// checkView runs one datagram through both entries of every pair and
// reports the first difference in verdict, output bytes, counters, or an
// input modified in place. Bytes the kernel would drop reach only the
// byte entry, which must then leave them alone.
func checkView(tb testing.TB, pairs []viewPair, k *kernelView, data []byte, dir netsim.Direction) {
	tb.Helper()
	for _, p := range pairs {
		bin := append([]byte(nil), data...)
		bout, bverdict := p.bytes.Process(viewNode, dir, bin)
		if !bytes.Equal(bin, data) {
			tb.Fatalf("%s: byte entry modified its input in place", p.name)
		}
		vin := append([]byte(nil), data...)
		view, ok := k.bind(vin)
		if !ok {
			if bout != nil {
				tb.Fatalf("%s: rewrote bytes that do not decode", p.name)
			}
			// Keep the view instance in step with the byte instance's
			// state: the view entry never sees undecodable bytes.
			p.view.(netsim.Middlebox).Process(viewNode, dir, vin)
			continue
		}
		vout, vverdict := p.view.ProcessPacket(viewNode, dir, &view)
		if !bytes.Equal(vin, data) {
			tb.Fatalf("%s: view entry modified the datagram in place", p.name)
		}
		if bverdict != vverdict || (bout == nil) != (vout == nil) || !bytes.Equal(bout, vout) {
			tb.Fatalf("%s %v on %x: bytes entry gave (%x, %v), view entry (%x, %v)", p.name, dir, data, bout, bverdict, vout, vverdict)
		}
		if bs, vs := p.bytesSnap(), p.viewSnap(); bs != vs {
			tb.Fatalf("%s %v on %x: counters diverged: bytes %s, view %s", p.name, dir, data, bs, vs)
		}
	}
}

// TestViewMatchesBytes: for every converted device, the decoded-view
// entry on the kernel's view and the byte entry on the same bytes give
// the same verdict, byte-identical output and the same counters, over a
// seeded corpus in every direction.
func TestViewMatchesBytes(t *testing.T) {
	pairs := buildPairs(t)
	var k kernelView
	corpus := viewCorpus(42, 3000)
	for _, data := range corpus {
		for _, dir := range directions {
			checkView(t, pairs, &k, data, dir)
		}
	}
	// The corpus must reach the branches it is meant to: a check that
	// never blocks, rewrites or captures shows nothing.
	for _, p := range pairs {
		if s := p.bytesSnap(); s == "0" || s == "0 0" {
			t.Errorf("%s: corpus never moved its counters (%s)", p.name, s)
		}
	}
}

// FuzzMiddleboxView: on arbitrary bytes in any direction, every
// converted device's byte entry and decoded-view entry agree.
func FuzzMiddleboxView(f *testing.F) {
	for i, data := range viewCorpus(7, 24) {
		f.Add(uint8(i%3), data)
	}
	f.Fuzz(func(t *testing.T, dir uint8, data []byte) {
		pairs := buildPairs(t)
		var k kernelView
		checkView(t, pairs, &k, data, netsim.Direction(dir%3))
	})
}

// chainProbe records what the kernel's view shows a device placed after
// a rewriting box.
type chainProbe struct {
	dst    packet.Addr
	port   uint16
	data   []byte
	hasTTP bool
}

func (c *chainProbe) Name() string { return "probe" }
func (c *chainProbe) Silent() bool { return true }
func (c *chainProbe) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	var tip packet.TIP
	p := netsim.Packet{Data: data, TIP: netsim.DecodeTIP(data, &tip)}
	return c.ProcessPacket(node, dir, &p)
}
func (c *chainProbe) ProcessPacket(_ topology.NodeID, _ netsim.Direction, p *netsim.Packet) ([]byte, netsim.Verdict) {
	c.dst, c.data = p.TIP.Dst, p.Data
	ttp := p.TTP()
	if c.hasTTP = ttp != nil; c.hasTTP {
		c.port = ttp.SrcPort
	}
	return nil, netsim.Accept
}

// TestKernelRebindsViewAfterRewrite: a device after a rewriting box sees
// the rewritten header and a transport header decoded afresh from the
// rewritten bytes, not the view's cache from before the rewrite.
func TestKernelRebindsViewAfterRewrite(t *testing.T) {
	public := packet.MakeAddr(2, 1)
	to := packet.MakeAddr(3, 7)
	first := &chainProbe{}
	probe := &chainProbe{}
	redir := &middlebox.Redirector{Label: "redir", MatchPort: 80, To: to}
	dp := wire.NewDataplane(wire.NodeConfig{
		ID: 2, Route: func(dst packet.Addr, _ *packet.TIP) (topology.NodeID, bool) {
			return topology.NodeID(dst.Provider()), true
		},
		Middleboxes: []netsim.Middlebox{first, redir, probe}, Peers: []topology.NodeID{1, 3},
	})
	data, err := packet.Serialize(
		&packet.TIP{TTL: 9, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(1, 4), Dst: packet.MakeAddr(1, 5)},
		&packet.TTP{SrcPort: 1234, DstPort: 80, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	dec := dp.Process(append([]byte(nil), data...))
	if dec.String() != "forward 3" {
		t.Fatalf("decided %v, want forward 3", dec)
	}
	if first.port != 1234 || first.dst != packet.MakeAddr(1, 5) {
		t.Fatalf("first box saw dst %v port %d", first.dst, first.port)
	}
	if probe.dst != to {
		t.Fatalf("box after the redirector saw dst %v, want %v", probe.dst, to)
	}
	if &probe.data[0] == &first.data[0] || !bytes.Equal(probe.data, dec.Data) {
		t.Fatal("box after the redirector did not see the rewritten bytes")
	}
	// The next packet gets a view of its own: no transport header is
	// carried over from the last one.
	raw, err := packet.Serialize(&packet.TIP{TTL: 9, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(1, 4), Dst: packet.MakeAddr(3, 5)}, &packet.Raw{Data: []byte("raw")})
	if err != nil {
		t.Fatal(err)
	}
	if dec := dp.Process(raw); dec.String() != "forward 3" || first.hasTTP || probe.hasTTP {
		t.Fatalf("raw packet decided %v; boxes saw a TTP header: %v, %v", dec, first.hasTTP, probe.hasTTP)
	}

	// The NAT translates what its node sends, so the second half goes
	// through the simulator: the probe must see the NAT's source port,
	// which only a fresh TTP decode of the rewritten bytes can show (the
	// first box made the view cache the original TTP header).
	sched := sim.NewScheduler()
	n := netsim.New(sched, topology.Linear(3, sim.Millisecond))
	for id := topology.NodeID(1); id <= 3; id++ {
		id := id
		n.Node(id).Route = func(dst packet.Addr, _ *packet.TIP) (topology.NodeID, bool) {
			d := topology.NodeID(dst.Provider())
			switch {
			case d > id:
				return id + 1, true
			case d < id:
				return id - 1, true
			}
			return id, true
		}
	}
	first, probe = &chainProbe{}, &chainProbe{}
	for _, m := range []netsim.Middlebox{first, middlebox.NewNAT("nat", public), probe} {
		n.Node(2).AddMiddlebox(m)
	}
	out, err := packet.Serialize(
		&packet.TIP{TTL: 9, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(2, 4), Dst: packet.MakeAddr(3, 5)},
		&packet.TTP{SrcPort: 1234, DstPort: 80, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	tr := n.Send(2, out)
	sched.Run()
	if !tr.Delivered {
		t.Fatalf("packet not delivered: %s", tr.DropReason)
	}
	if first.port != 1234 {
		t.Fatalf("first box saw source port %d, want 1234", first.port)
	}
	if probe.port != 40000 {
		t.Fatalf("box after the NAT saw source port %d, want the translated 40000", probe.port)
	}
}
