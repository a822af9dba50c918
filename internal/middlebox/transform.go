package middlebox

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
)

// NAT rewrites source addresses of outbound traffic to a single public
// address, remembering host mappings so replies can be translated back —
// the §I example: "ISPs give their users a single IP address, and users
// attach a network of computers using address translation." Here the NAT
// represents the *user's* counter-move modeled at the edge node.
type NAT struct {
	Label string
	// Public is the single address the provider assigned.
	Public packet.Addr
	// ports maps an external source port to the original internal
	// source address, so inbound replies can be un-translated.
	ports   map[uint16]packet.Addr
	nextExt uint16
	// Translations counts rewrites performed.
	Translations int
}

// NewNAT creates a NAT translating to the given public address.
func NewNAT(label string, public packet.Addr) *NAT {
	return &NAT{Label: label, Public: public, ports: make(map[uint16]packet.Addr), nextExt: 40000}
}

// Name implements netsim.Middlebox.
func (n *NAT) Name() string { return n.Label }

// Silent implements netsim.Middlebox.
func (n *NAT) Silent() bool { return false }

// Process implements netsim.Middlebox.
func (n *NAT) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	var tip packet.TIP
	p := netsim.Packet{Data: data, TIP: netsim.DecodeTIP(data, &tip)}
	return n.ProcessPacket(node, dir, &p)
}

// ProcessPacket implements netsim.PacketMiddlebox.
func (n *NAT) ProcessPacket(node topology.NodeID, dir netsim.Direction, p *netsim.Packet) ([]byte, netsim.Verdict) {
	tip, ttp := p.TIP, p.TTP()
	if ttp == nil {
		return nil, netsim.Accept
	}
	switch dir {
	case netsim.Sending:
		if tip.Src == n.Public {
			return nil, netsim.Accept
		}
		orig := tip.Src
		ext := n.nextExt
		n.nextExt++
		n.ports[ext] = orig
		out := rewrite(tip, ttp, n.Public, tip.Dst, ext)
		if out == nil {
			return nil, netsim.Accept
		}
		n.Translations++
		return out, netsim.Accept
	case netsim.Delivering:
		orig, ok := n.ports[ttp.DstPort]
		if !ok {
			return nil, netsim.Accept
		}
		out := rewrite(tip, ttp, tip.Src, orig, ttp.SrcPort)
		if out == nil {
			return nil, netsim.Accept
		}
		n.Translations++
		return out, netsim.Accept
	}
	return nil, netsim.Accept
}

// rewrite re-serializes a TIP/TTP packet with the given source and
// destination addresses and TTP source port, every other field as
// decoded. The payload below TTP is preserved byte-for-byte. The output
// bytes are its only allocation; it returns nil if the header does not
// re-serialize.
func rewrite(tip *packet.TIP, ttp *packet.TTP, src, dst packet.Addr, srcPort uint16) []byte {
	t2, u2 := *tip, *ttp
	t2.Src, t2.Dst, u2.SrcPort = src, dst, srcPort
	out, err := packet.SerializeTTP(&t2, &u2, ttp.LayerPayload())
	if err != nil {
		return nil
	}
	return out
}

// Redirector rewrites the destination of matching traffic — the "ISP
// might try to control what SMTP server a customer uses by redirecting
// packets based on the port number" move from §IV-B.
type Redirector struct {
	Label string
	// MatchPort selects traffic to redirect.
	MatchPort uint16
	// To is the imposed destination.
	To packet.Addr
	// Quiet hides the device from drop reports (it never drops, but
	// quietness also models undisclosed rewriting).
	Quiet      bool
	Redirected int
}

// Name implements netsim.Middlebox.
func (r *Redirector) Name() string { return r.Label }

// Silent implements netsim.Middlebox.
func (r *Redirector) Silent() bool { return r.Quiet }

// Process implements netsim.Middlebox.
func (r *Redirector) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	var tip packet.TIP
	p := netsim.Packet{Data: data, TIP: netsim.DecodeTIP(data, &tip)}
	return r.ProcessPacket(node, dir, &p)
}

// ProcessPacket implements netsim.PacketMiddlebox.
func (r *Redirector) ProcessPacket(node topology.NodeID, dir netsim.Direction, p *netsim.Packet) ([]byte, netsim.Verdict) {
	tip, ttp := p.TIP, p.TTP()
	if ttp == nil || ttp.DstPort != r.MatchPort || tip.Dst == r.To {
		return nil, netsim.Accept
	}
	out := rewrite(tip, ttp, tip.Src, r.To, ttp.SrcPort)
	if out == nil {
		return nil, netsim.Accept
	}
	r.Redirected++
	return out, netsim.Accept
}

// Wiretap copies matching traffic to a collector — "the desire of third
// parties to observe a data flow (e.g., wiretap) calls for data capture
// sites in the network" (§VI-A). Encrypted payloads are captured but
// opaque; the tap records whether it could see inside.
type Wiretap struct {
	Label string
	// MatchSrc limits capture to one surveilled provider (0 = all).
	MatchSrc uint16
	// Captured accumulates capture records.
	Captured []Capture
}

// Capture is one intercepted packet summary.
type Capture struct {
	Src, Dst packet.Addr
	// Readable reports whether the payload was in the clear.
	Readable bool
	Bytes    int
}

// Name implements netsim.Middlebox.
func (w *Wiretap) Name() string { return w.Label }

// Silent implements netsim.Middlebox. Taps never announce themselves.
func (w *Wiretap) Silent() bool { return true }

// Process implements netsim.Middlebox.
func (w *Wiretap) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	var tip packet.TIP
	p := netsim.Packet{Data: data, TIP: netsim.DecodeTIP(data, &tip)}
	return w.ProcessPacket(node, dir, &p)
}

// ProcessPacket implements netsim.PacketMiddlebox.
func (w *Wiretap) ProcessPacket(node topology.NodeID, dir netsim.Direction, p *netsim.Packet) ([]byte, netsim.Verdict) {
	tip := p.TIP
	if tip == nil {
		return nil, netsim.Accept
	}
	if w.MatchSrc != 0 && tip.Src.Provider() != w.MatchSrc {
		return nil, netsim.Accept
	}
	readable := true
	if ttp := p.TTP(); ttp != nil && ttp.Next == packet.LayerTypeCrypto {
		readable = false
	}
	if tip.Proto == packet.LayerTypeCrypto {
		readable = false
	}
	w.Captured = append(w.Captured, Capture{Src: tip.Src, Dst: tip.Dst, Readable: readable, Bytes: len(p.Data)})
	return nil, netsim.Accept
}

// ReadableFraction reports how much of the captured traffic the tap
// could actually read — the §VI-A encryption escalation metric.
func (w *Wiretap) ReadableFraction() float64 {
	if len(w.Captured) == 0 {
		return 0
	}
	n := 0
	for _, c := range w.Captured {
		if c.Readable {
			n++
		}
	}
	return float64(n) / float64(len(w.Captured))
}

// EncryptionBlocker drops encrypted traffic — the escalation §VI-A
// contemplates: "the response of the provider is to refuse to carry
// encrypted data." The device can be configured to exempt inspectable
// encryption (the visible-choice compromise).
type EncryptionBlocker struct {
	Label string
	// AllowInspectable exempts crypto layers that declare their inner
	// type.
	AllowInspectable bool
	Quiet            bool
	Hits             int
}

// Name implements netsim.Middlebox.
func (e *EncryptionBlocker) Name() string { return e.Label }

// Silent implements netsim.Middlebox.
func (e *EncryptionBlocker) Silent() bool { return e.Quiet }

// Process implements netsim.Middlebox.
func (e *EncryptionBlocker) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	var tip packet.TIP
	p := netsim.Packet{Data: data, TIP: netsim.DecodeTIP(data, &tip)}
	return e.ProcessPacket(node, dir, &p)
}

// ProcessPacket implements netsim.PacketMiddlebox.
func (e *EncryptionBlocker) ProcessPacket(node topology.NodeID, dir netsim.Direction, p *netsim.Packet) ([]byte, netsim.Verdict) {
	tip := p.TIP
	if tip == nil {
		return nil, netsim.Accept
	}
	var cryptoBytes []byte
	if ttp := p.TTP(); ttp != nil && ttp.Next == packet.LayerTypeCrypto {
		cryptoBytes = ttp.LayerPayload()
	} else if tip.Proto == packet.LayerTypeCrypto {
		cryptoBytes = tip.LayerPayload()
	}
	if cryptoBytes == nil {
		return nil, netsim.Accept
	}
	if e.AllowInspectable && packet.InspectableCrypto(cryptoBytes) {
		return nil, netsim.Accept
	}
	e.Hits++
	return nil, netsim.Drop
}
