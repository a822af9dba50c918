package middlebox_test

import (
	"testing"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ttpDatagram builds a TTP datagram with the given header options.
func ttpDatagram(tb testing.TB, tip packet.TIP, srcPort, dstPort uint16, next packet.LayerType, payload []byte) []byte {
	tb.Helper()
	tip.Proto = packet.LayerTypeTTP
	if tip.TTL == 0 {
		tip.TTL = 16
	}
	data, err := packet.Serialize(&tip, &packet.TTP{SrcPort: srcPort, DstPort: dstPort, Next: next, Window: 2}, &packet.Raw{Data: payload})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// opaqueCrypto is a sealed crypto layer without a declared inner type.
func opaqueCrypto(tb testing.TB) []byte {
	tb.Helper()
	c := &packet.Crypto{Nonce: 9}
	c.Seal([]byte("k"), []byte("secret"), packet.LayerTypeRaw)
	out, err := packet.Serialize(c)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestByteProcessZeroAlloc: calling a non-rewriting device's byte entry
// directly allocates nothing — the decoded header and the view stay on
// its stack. (A fresh decode of an option-bearing header allocates the
// option structs; the kernel's decoded-view entry never decodes, so the
// corpus here is option-free.) A view that escapes to the heap fails it.
func TestByteProcessZeroAlloc(t *testing.T) {
	src, dst := packet.MakeAddr(3, 1), packet.MakeAddr(2, 7)
	pkts := [][]byte{
		ttpDatagram(t, packet.TIP{Src: src, Dst: dst}, 1234, 443, packet.LayerTypeRaw, []byte("web")),
		ttpDatagram(t, packet.TIP{Src: src, Dst: dst}, 1234, 25, packet.LayerTypeRaw, []byte("smtp")),
		ttpDatagram(t, packet.TIP{Src: src, Dst: dst}, 1234, 7777, packet.LayerTypeCrypto, opaqueCrypto(t)),
		ttpDatagram(t, packet.TIP{Src: src, Dst: dst}, 1234, 80, packet.LayerTypeRaw, []byte("open")),
		{0x18, 0x01, 0x02}, // undecodable
	}
	net := netsim.New(sim.NewScheduler(), topology.Linear(2, sim.Millisecond))
	transport.InstallLinkARQ(net, 1, 0.5, 2, sim.NewRNG(1), new(int))
	impair := &wire.PathImpairment{PathID: 2}
	impair.SetEnabled(true)
	devices := []netsim.Middlebox{
		&middlebox.PortFirewall{Label: "fw", BlockedPorts: map[uint16]bool{25: true}},
		&middlebox.TrustFirewall{Label: "tfw", MinScore: 0.5, Rep: reputation()},
		&middlebox.PolicyFirewall{Label: "pfw", Doc: parsePolicy(t, cleanPolicy)},
		&middlebox.Wiretap{Label: "tap", MatchSrc: 9},
		&middlebox.EncryptionBlocker{Label: "enc"},
		&middlebox.NegotiableFirewall{Label: "nfw", AlwaysOpen: map[uint16]bool{80: true}},
		&middlebox.Redirector{Label: "redir", MatchPort: 8080, To: packet.MakeAddr(2, 99)}, // no match
		net.Node(1).Middleboxes[0],
		transport.InstallLossyLink(net, 1, 0.5, sim.NewRNG(2)),
		impair,
	}
	for _, m := range devices {
		pkts := pkts
		if _, ok := m.(*middlebox.PolicyFirewall); ok {
			// Undecodable bytes bind an empty environment, where every
			// rule fails on an unknown attribute and each failure is an
			// error value: that is the policy's cost, not the entry's.
			pkts = pkts[:len(pkts)-1]
		}
		run := func() {
			for _, data := range pkts {
				for _, dir := range directions {
					if out, _ := m.Process(viewNode, dir, data); out != nil {
						t.Fatalf("%s rewrote a packet", m.Name())
					}
				}
			}
		}
		run() // warm: the policy firewall compiles and builds its env once
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: byte entry costs %.1f allocs per %d calls, want 0", m.Name(), allocs, len(pkts)*len(directions))
		}
	}
}

// TestRewriteAllocs: a NAT or redirector rewrite costs exactly one
// allocation, the output bytes, on either entry.
func TestRewriteAllocs(t *testing.T) {
	srv := packet.MakeAddr(2, 99)
	web := ttpDatagram(t, packet.TIP{Src: packet.MakeAddr(1, 4), Dst: packet.MakeAddr(3, 1)}, 1234, 8080, packet.LayerTypeRaw, []byte("GET /"))
	redir := &middlebox.Redirector{Label: "redir", MatchPort: 8080, To: packet.MakeAddr(3, 99)}
	nat := middlebox.NewNAT("nat", packet.MakeAddr(2, 1))
	// One translation, so the reply below has a mapping to restore.
	out, _ := nat.Process(2, netsim.Sending, ttpDatagram(t, packet.TIP{Src: packet.MakeAddr(2, 5), Dst: srv}, 1234, 80, packet.LayerTypeRaw, []byte("req")))
	if out == nil {
		t.Fatal("NAT did not translate")
	}
	reply := ttpDatagram(t, packet.TIP{Src: srv, Dst: packet.MakeAddr(2, 1)}, 80, 40000, packet.LayerTypeRaw, []byte("resp"))
	var k kernelView
	for _, c := range []struct {
		name string
		m    netsim.Middlebox
		dir  netsim.Direction
		data []byte
	}{
		{"redirector", redir, netsim.Forwarding, web},
		{"nat-restore", nat, netsim.Delivering, reply},
	} {
		if out, _ := c.m.Process(2, c.dir, c.data); out == nil {
			t.Fatalf("%s: no rewrite", c.name)
		}
		byteAllocs := testing.AllocsPerRun(200, func() { c.m.Process(2, c.dir, c.data) })
		view, ok := k.bind(c.data)
		if !ok {
			t.Fatal("test datagram does not decode")
		}
		pm := c.m.(netsim.PacketMiddlebox)
		viewAllocs := testing.AllocsPerRun(200, func() { pm.ProcessPacket(2, c.dir, &view) })
		if byteAllocs != 1 || viewAllocs != 1 {
			t.Errorf("%s: rewrite costs %.1f allocs (bytes) / %.1f (view), want 1", c.name, byteAllocs, viewAllocs)
		}
	}
}

// TestPolicyFirewallAllocs: the policy firewall binds packet attributes
// into an environment it owns, so judging a packet allocates nothing
// but an identity-bearing packet's identity string.
func TestPolicyFirewallAllocs(t *testing.T) {
	fw := &middlebox.PolicyFirewall{Label: "pfw", Doc: parsePolicy(t, cleanPolicy)}
	for _, c := range []struct {
		id   string
		want float64
	}{{"", 0}, {"alice", 1}} {
		tip := packet.TIP{Src: packet.MakeAddr(3, 1), Dst: packet.MakeAddr(2, 7)}
		if c.id != "" {
			tip.Identity = &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte(c.id)}
		}
		data := ttpDatagram(t, tip, 1234, 443, packet.LayerTypeRaw, []byte("x"))
		var decoded packet.TIP
		if err := decoded.DecodeFrom(data); err != nil {
			t.Fatal(err)
		}
		view := netsim.Packet{Data: data, TIP: &decoded}
		run := func() {
			if _, verdict := fw.ProcessPacket(2, netsim.Delivering, &view); verdict != netsim.Accept {
				t.Fatal("packet denied")
			}
		}
		run() // warm: the policy compiles and the env map is built once
		if a := testing.AllocsPerRun(100, run); a != c.want {
			t.Errorf("identity %q: judging a packet costs %.1f allocs, want %.0f", c.id, a, c.want)
		}
	}
}
