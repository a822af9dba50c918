package transport

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Hop-by-hop reliability: the in-network alternative the end-to-end
// argument weighs. Each participating node holds a copy of every
// forwarded data segment and retransmits over its next link until the
// downstream node is seen to have taken custody. The implementation
// models link-layer ARQ as per-link duplication with probability of
// success, realized by resending through the simulator until the
// next-hop trace confirms receipt.
//
// Two properties the experiments surface:
//
//   - retransmission span: a loss near the destination costs only the
//     last link's retransmission, not the whole path (the performance
//     case *for* in-network function);
//   - state and failure points: every custody node is a new place where
//     the transfer can break — and none of it removes the need for
//     end-to-end checking, which is the argument's core.

// LinkARQ wraps a node so that every data segment it forwards is
// retried locally against the next hop until delivered or the retry
// budget is exhausted. It is installed as a middlebox observing
// forwarding plus a resend loop on the scheduler.
type LinkARQ struct {
	Label string
	// Retries is the per-segment local retry budget.
	Retries int
	// LinkRetransmissions counts local resends performed network-wide
	// when shared across nodes.
	LinkRetransmissions *int

	net *netsim.Network
	id  topology.NodeID
	rng *sim.RNG
	// LossProb is the probability this node's outbound link loses a
	// data segment (the lossy-link model for ARQ experiments).
	LossProb float64
}

// InstallLinkARQ attaches link-layer ARQ behaviour to a node: outbound
// data segments are lost with lossProb, and each loss is repaired
// locally up to retries times. counter accumulates local resends.
func InstallLinkARQ(net *netsim.Network, id topology.NodeID, lossProb float64, retries int, rng *sim.RNG, counter *int) {
	arq := &LinkARQ{
		Label: "link-arq", Retries: retries, LinkRetransmissions: counter,
		net: net, id: id, rng: rng, LossProb: lossProb,
	}
	net.Node(id).AddMiddlebox(arq)
}

// Name implements netsim.Middlebox.
func (a *LinkARQ) Name() string { return a.Label }

// Silent implements netsim.Middlebox.
func (a *LinkARQ) Silent() bool { return false }

// forwardedData reports whether p is a data segment (TTP, not an ACK)
// moving through the node — the traffic both link models act on.
func forwardedData(dir netsim.Direction, p *netsim.Packet) bool {
	if dir != netsim.Forwarding {
		return false
	}
	ttp := p.TTP()
	return ttp != nil && ttp.Flags&packet.FlagACK == 0
}

// Process implements netsim.Middlebox.
func (a *LinkARQ) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir != netsim.Forwarding {
		return nil, netsim.Accept
	}
	var tip packet.TIP
	p := netsim.Packet{Data: data, TIP: netsim.DecodeTIP(data, &tip)}
	return a.ProcessPacket(node, dir, &p)
}

// ProcessPacket implements netsim.PacketMiddlebox: on forwarding, the
// segment is lost with LossProb; link ARQ repairs it locally with up to
// Retries resends (each resend is itself subject to loss).
func (a *LinkARQ) ProcessPacket(node topology.NodeID, dir netsim.Direction, p *netsim.Packet) ([]byte, netsim.Verdict) {
	if !forwardedData(dir, p) {
		return nil, netsim.Accept
	}
	if !a.rng.Bool(a.LossProb) {
		return nil, netsim.Accept // made it first try
	}
	// Local repair: each retry succeeds with 1-LossProb.
	for r := 0; r < a.Retries; r++ {
		if a.LinkRetransmissions != nil {
			*a.LinkRetransmissions++
		}
		if !a.rng.Bool(a.LossProb) {
			return nil, netsim.Accept // repaired locally
		}
	}
	return nil, netsim.Drop // local repair exhausted; end-to-end must recover
}

// LossyLink is the plain lossy link for the end-to-end-only comparison:
// same loss process, no local repair.
type LossyLink struct {
	Label    string
	LossProb float64
	rng      *sim.RNG
	// Lost counts drops.
	Lost int
}

// InstallLossyLink attaches a plain lossy link at a node.
func InstallLossyLink(net *netsim.Network, id topology.NodeID, lossProb float64, rng *sim.RNG) *LossyLink {
	l := &LossyLink{Label: "lossy-link", LossProb: lossProb, rng: rng}
	net.Node(id).AddMiddlebox(l)
	return l
}

// Name implements netsim.Middlebox.
func (l *LossyLink) Name() string { return l.Label }

// Silent implements netsim.Middlebox. Losses are silent, as in life.
func (l *LossyLink) Silent() bool { return true }

// Process implements netsim.Middlebox.
func (l *LossyLink) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir != netsim.Forwarding {
		return nil, netsim.Accept
	}
	var tip packet.TIP
	p := netsim.Packet{Data: data, TIP: netsim.DecodeTIP(data, &tip)}
	return l.ProcessPacket(node, dir, &p)
}

// ProcessPacket implements netsim.PacketMiddlebox.
func (l *LossyLink) ProcessPacket(node topology.NodeID, dir netsim.Direction, p *netsim.Packet) ([]byte, netsim.Verdict) {
	if !forwardedData(dir, p) {
		return nil, netsim.Accept
	}
	if l.rng.Bool(l.LossProb) {
		l.Lost++
		return nil, netsim.Drop
	}
	return nil, netsim.Accept
}
