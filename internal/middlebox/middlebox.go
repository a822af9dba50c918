// Package middlebox implements the in-network devices that make the
// transparency tussle concrete (§V-B and §VI-A of the paper): port-based,
// trust-aware, policy-language, and negotiable (MIDCOM-style) firewalls,
// NAT, connection redirectors, wiretaps, and encryption blockers. Every
// device implements the netsim.Middlebox interface and can be installed
// at any node. (Application-level caches live in internal/apps.)
//
// Every device classifies in one body, ProcessPacket, over the decoded
// view the forwarding kernel hands its chain (netsim.PacketMiddlebox), so
// a packet is parsed once per hop, not once per device. Process, the
// byte entry, decodes the datagram on the caller's stack and calls that
// body: both entries give the same verdict, bytes and counters. A byte
// entry repeats the body's cheap direction test ahead of the decode, so
// a packet the device ignores costs no parse there either.
//
// Devices differ on the two axes the paper cares about:
//
//   - what they condition on (ports and addresses vs. who is
//     communicating — the trust-aware firewall of §V-B);
//   - whether they reveal themselves (Disclose/Silent — "one way to help
//     preserve the end-to-end character of the Internet is to require
//     that devices reveal if they impose limitations on it").
package middlebox

import (
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topology"
	"repro/internal/trust"
)

// PortFirewall blocks a configured set of transport ports — the blunt
// instrument that overloads port numbers with access-control meaning and
// invites tunneling counter-moves.
type PortFirewall struct {
	// Label names the device in traces.
	Label string
	// BlockedPorts is the deny list (destination ports).
	BlockedPorts map[uint16]bool
	// BlockInbound restricts enforcement to traffic delivered at this
	// node (the residential "no servers" rule); when false, all
	// directions are filtered.
	BlockInbound bool
	// Quiet suppresses self-identification in drop reports.
	Quiet bool
	// Hits counts dropped packets.
	Hits int
}

// Name implements netsim.Middlebox.
func (f *PortFirewall) Name() string { return f.Label }

// Silent implements netsim.Middlebox.
func (f *PortFirewall) Silent() bool { return f.Quiet }

// Process implements netsim.Middlebox.
func (f *PortFirewall) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if f.BlockInbound && dir != netsim.Delivering {
		return nil, netsim.Accept
	}
	var tip packet.TIP
	p := netsim.Packet{Data: data, TIP: netsim.DecodeTIP(data, &tip)}
	return f.ProcessPacket(node, dir, &p)
}

// ProcessPacket implements netsim.PacketMiddlebox.
func (f *PortFirewall) ProcessPacket(node topology.NodeID, dir netsim.Direction, p *netsim.Packet) ([]byte, netsim.Verdict) {
	if f.BlockInbound && dir != netsim.Delivering {
		return nil, netsim.Accept
	}
	ttp := p.TTP()
	if ttp == nil {
		return nil, netsim.Accept
	}
	if f.BlockedPorts[ttp.DstPort] {
		f.Hits++
		return nil, netsim.Drop
	}
	return nil, netsim.Accept
}

// Rules returns a human-readable dump of the device's configuration —
// the §V-B disclosure question ("should that end user be able to
// download and examine these rules?"). It returns ok=false when the
// operator declines disclosure; the paper notes this can only be a
// courtesy, not an enforced requirement.
func (f *PortFirewall) Rules() ([]string, bool) {
	if f.Quiet {
		return nil, false
	}
	ports := make([]int, 0, len(f.BlockedPorts))
	for p := range f.BlockedPorts {
		ports = append(ports, int(p))
	}
	sort.Ints(ports)
	out := make([]string, len(ports))
	for i, p := range ports {
		out[i] = fmt.Sprintf("deny port %d", p)
	}
	return out, true
}

// TrustFirewall admits traffic based on who is communicating rather than
// which ports are used — the "trust-aware firewall" §V-B sketches. It
// consults the sender's identity option and a reputation mediator.
type TrustFirewall struct {
	Label string
	// MinScore is the reputation threshold for admission.
	MinScore float64
	// Rep is the chosen third-party mediator.
	Rep *trust.Reputation
	// AllowAnonymous admits traffic with a visible anonymous identity;
	// when false, anonymity is answered with refusal — the paper's
	// predicted equilibrium ("many people will choose not to
	// communicate with you if you do").
	AllowAnonymous bool
	// Quiet suppresses self-identification.
	Quiet bool
	// Hits counts dropped packets.
	Hits int
}

// Name implements netsim.Middlebox.
func (f *TrustFirewall) Name() string { return f.Label }

// Silent implements netsim.Middlebox.
func (f *TrustFirewall) Silent() bool { return f.Quiet }

// Process implements netsim.Middlebox.
func (f *TrustFirewall) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir != netsim.Delivering {
		return nil, netsim.Accept
	}
	var tip packet.TIP
	p := netsim.Packet{Data: data, TIP: netsim.DecodeTIP(data, &tip)}
	return f.ProcessPacket(node, dir, &p)
}

// ProcessPacket implements netsim.PacketMiddlebox.
func (f *TrustFirewall) ProcessPacket(node topology.NodeID, dir netsim.Direction, p *netsim.Packet) ([]byte, netsim.Verdict) {
	if dir != netsim.Delivering || p.TIP == nil {
		return nil, netsim.Accept
	}
	id := p.TIP.Identity
	if id == nil || id.Scheme == uint8(trust.Anonymous) {
		if f.AllowAnonymous {
			return nil, netsim.Accept
		}
		f.Hits++
		return nil, netsim.Drop
	}
	if f.Rep != nil {
		if f.Rep.Score(string(id.ID)) < f.MinScore {
			f.Hits++
			return nil, netsim.Drop
		}
	}
	return nil, netsim.Accept
}

// PolicyFirewall enforces a TPL policy document over packet attributes —
// the policy-language approach of §II-B, with its strengths (expressive,
// explicit) and its bound ontology (attributes below are all it can see).
type PolicyFirewall struct {
	Label string
	Doc   *policy.Document
	Quiet bool
	Hits  int
	// Errors counts rule evaluation failures (unknown attributes —
	// tussles outside the ontology).
	Errors int

	// compiled caches the bytecode form of Doc (built on first Process,
	// rebuilt if Doc is swapped). The VM and the tree-walker are
	// differentially tested to agree on every value and error, so this
	// changes per-packet cost, not decisions.
	compiled *policy.CompiledDocument
	budget   policy.Budget
	// env is the per-packet attribute binding, cleared and refilled for
	// each packet (the evaluators only read it during the call).
	env policy.Env
}

// Vocabulary is the attribute ontology a PolicyFirewall exposes to
// policies. Anything else a policy references cannot be enforced.
var Vocabulary = []string{
	"src-provider", "dst-provider", "port", "src-port", "tos",
	"direction", "identity-scheme", "identity", "encrypted",
	"inspectable", "tunneled", "has-payment",
}

// Name implements netsim.Middlebox.
func (f *PolicyFirewall) Name() string { return f.Label }

// Silent implements netsim.Middlebox.
func (f *PolicyFirewall) Silent() bool { return f.Quiet }

// directionNames is the "direction" attribute's value for each
// netsim.Direction.
var directionNames = [...]string{netsim.Forwarding: "transit", netsim.Delivering: "inbound", netsim.Sending: "outbound"}

// bindEnv exposes packet attributes to the policy evaluator, in the
// device's own env map. A view without a network header binds nothing.
func (f *PolicyFirewall) bindEnv(dir netsim.Direction, p *netsim.Packet) policy.Env {
	if f.env == nil {
		f.env = make(policy.Env, len(Vocabulary))
	}
	env := f.env
	clear(env)
	tip := p.TIP
	if tip == nil {
		return env
	}
	env["src-provider"] = policy.Num(float64(tip.Src.Provider()))
	env["dst-provider"] = policy.Num(float64(tip.Dst.Provider()))
	env["tos"] = policy.Num(float64(tip.TOS))
	direction := ""
	if int(dir) < len(directionNames) {
		direction = directionNames[dir]
	}
	env["direction"] = policy.Str(direction)
	env["has-payment"] = policy.Bool(tip.Payment != nil)
	scheme := "none"
	identity := ""
	if tip.Identity != nil {
		scheme = trust.Scheme(tip.Identity.Scheme).String()
		identity = string(tip.Identity.ID)
	}
	env["identity-scheme"] = policy.Str(scheme)
	env["identity"] = policy.Str(identity)
	encrypted := false
	inspectable := false
	tunneled := false
	if ttp := p.TTP(); ttp != nil {
		env["port"] = policy.Num(float64(ttp.DstPort))
		env["src-port"] = policy.Num(float64(ttp.SrcPort))
		switch ttp.Next {
		case packet.LayerTypeCrypto:
			encrypted = true
			inspectable = packet.InspectableCrypto(ttp.LayerPayload())
		case packet.LayerTypeTunnel:
			tunneled = true
		}
	} else {
		env["port"] = policy.Num(-1)
		env["src-port"] = policy.Num(-1)
		if tip.Proto == packet.LayerTypeCrypto {
			encrypted = true
		}
		if tip.Proto == packet.LayerTypeTunnel {
			tunneled = true
		}
	}
	env["encrypted"] = policy.Bool(encrypted)
	env["inspectable"] = policy.Bool(inspectable)
	env["tunneled"] = policy.Bool(tunneled)
	return env
}

// Process implements netsim.Middlebox.
func (f *PolicyFirewall) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	var tip packet.TIP
	p := netsim.Packet{Data: data, TIP: netsim.DecodeTIP(data, &tip)}
	return f.ProcessPacket(node, dir, &p)
}

// ProcessPacket implements netsim.PacketMiddlebox. A byte entry's view
// of undecodable bytes binds an empty environment, which the policy
// still judges.
func (f *PolicyFirewall) ProcessPacket(node topology.NodeID, dir netsim.Direction, p *netsim.Packet) ([]byte, netsim.Verdict) {
	env := f.bindEnv(dir, p)
	if f.compiled == nil || f.compiled.Doc != f.Doc {
		cd, err := policy.CompileDocument(f.Doc)
		if err != nil {
			// Unreachable for a parsed document; fall back to reference
			// semantics rather than fail open or closed.
			d, errs := policy.Evaluate(f.Doc, env)
			f.Errors += len(errs)
			if d.Permitted() {
				return nil, netsim.Accept
			}
			f.Hits++
			return nil, netsim.Drop
		}
		f.compiled = cd
	}
	f.budget = policy.DefaultBudget()
	d, errs := f.compiled.Evaluate(env, &f.budget)
	f.Errors += len(errs)
	if d.Permitted() {
		return nil, netsim.Accept
	}
	f.Hits++
	return nil, netsim.Drop
}
