package netsim

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// HopKind is the forwarding kernel's decision about one packet at one
// node.
type HopKind uint8

// Hop decision kinds.
const (
	// HopDeliver: the packet terminates at this node.
	HopDeliver HopKind = iota
	// HopForward: the packet continues to HopDecision.Next.
	HopForward
	// HopDrop: the packet dies here for HopDecision.Reason.
	HopDrop
)

// DropKind classifies a kernel drop and indexes fixed per-reason stats
// tables. Its String is the reason the kernel emits, or that reason's
// prefix for the per-device reasons "blocked:<name>" and
// "malformed-after:<name>".
type DropKind uint8

// Drop kinds: the kernel's whole drop vocabulary.
const (
	DropMalformed      DropKind = iota // the bytes do not decode
	DropTTL                            // TTL reached zero
	DropNoRoute                        // no route to the destination
	DropBadNextHop                     // routing chose a non-adjacent node
	DropBlocked                        // a loud middlebox dropped it
	DropLost                           // a silent middlebox dropped it
	DropMalformedAfter                 // a middlebox rewrite produced undecodable bytes

	// DropKinds is the number of distinct drop kinds (for stats arrays).
	DropKinds
)

var dropKindNames = [DropKinds]string{"malformed", "ttl", "no-route", "bad-next-hop", "blocked", "lost", "malformed-after"}

func (k DropKind) String() string {
	if k < DropKinds {
		return dropKindNames[k]
	}
	return "unknown"
}

// SourceRouteOutcome is what routing did with a packet's source route.
type SourceRouteOutcome uint8

// Source-route outcomes: unused (none present, not honored, or the packet
// never reached routing), honored, denied by the compiled admission
// policy, or refused for lack of a payment voucher.
const (
	SourceRouteUnused SourceRouteOutcome = iota
	SourceRouteHonored
	SourceRouteDenied
	SourceRouteUnpaid
)

// ReasonKeys interns the per-device drop reasons so the kernel never
// concatenates per packet. Not safe for concurrent use: one per Network
// or per wire Dataplane.
type ReasonKeys struct{ blocked, malformedAfter *sim.KeyCache }

// NewReasonKeys returns an empty reason interner.
func NewReasonKeys() *ReasonKeys {
	return &ReasonKeys{sim.NewKeyCache(DropBlocked.String() + ":"), sim.NewKeyCache(DropMalformedAfter.String() + ":")}
}

// NodeView is one node's forwarding personality as the kernel sees it.
type NodeView struct {
	ID topology.NodeID
	// Route computes next hops; nil means the node can only deliver.
	Route RouteFunc
	// The §V-A4 knobs, as on Node: a non-nil SourceRoutePolicy replaces
	// the payment flag, and PolicySlots is its caller-owned scratch.
	HonorSourceRoutes            bool
	RequirePaymentForSourceRoute bool
	SourceRoutePolicy            *SourceRoutePolicy
	PolicySlots                  []policy.Value
	// Middleboxes run single-pass, in order (see Middlebox).
	Middleboxes []Middlebox
	// AddrShift maps an address to the node that owns it:
	// uint32(addr) >> AddrShift.
	AddrShift uint8
	// Link returns the index of the from→to link, or -1 when the nodes
	// are not adjacent; an engine without link indexes may answer any
	// non-negative value for a neighbor.
	Link func(from, to topology.NodeID) int32
	// Reasons interns the per-device drop reasons.
	Reasons *ReasonKeys
	// OnMbox, when non-nil, observes each middlebox run in chain order,
	// right after the device returns; rewrote reports a transform.
	OnMbox func(node topology.NodeID, m Middlebox, rewrote bool)

	// pkt is the view the middlebox chain classifies. It lives here, in
	// storage the Network or Dataplane owns, so handing it to devices
	// through an interface call allocates nothing.
	pkt Packet
}

// HopDecision is the kernel's verdict on one packet at one node. It is a
// value: producing one allocates nothing, and Reason is always a literal
// or an interned string.
type HopDecision struct {
	Kind HopKind
	// Next is the chosen neighbor when Kind == HopForward.
	Next topology.NodeID
	// Reason is the drop reason when Kind == HopDrop: Drop's String,
	// with ":<device>" appended for blocked and malformed-after drops.
	Reason string
	// Drop is the stats-table index for the drop reason.
	Drop DropKind
	// Data is the packet to deliver or transmit onward: the input bytes
	// (TTL and source route patched in place) or a middlebox's rewrite.
	// It is nil on a drop.
	Data []byte
	// Link is the index of the link to Next (see NodeView.Link).
	Link int32
	// Transit reports that the packet's TTL was decremented here and
	// survived; it stays set on a later routing drop.
	Transit bool
	// SourceRoute is what routing did with the packet's source route.
	SourceRoute SourceRouteOutcome
}

// String renders the decision in the differential-log vocabulary the
// engines share: "deliver", "forward <node>", "drop <reason>". It
// allocates and is meant for logs and tests, not the fast path.
func (d HopDecision) String() string {
	switch d.Kind {
	case HopDeliver:
		return "deliver"
	case HopForward:
		return fmt.Sprintf("forward %d", d.Next)
	default:
		return "drop " + d.Reason
	}
}

func drop(kind DropKind, reason string) HopDecision {
	return HopDecision{Kind: HopDrop, Drop: kind, Reason: reason}
}

func (v *NodeView) owns(a packet.Addr) bool { return topology.NodeID(uint32(a)>>v.AddrShift) == v.ID }

// Decide is the forwarding kernel: the per-hop decision both the
// simulator (Node.process) and the live wire engine
// (wire.Dataplane.Process) make through this one function — who may
// block the packet (§V-B), who may dictate its route (§V-A4), and when it
// dies. It runs the middlebox chain, delivery, the TTL decrement,
// source-route admission and advance, then next-hop choice and the
// adjacency check. tip must be data's decoded header; the kernel keeps
// the two coherent, re-decoding after a rewrite and mirroring every
// in-place byte patch into tip, and the middlebox chain classifies tip
// itself (through the view's Packet) instead of re-parsing data. dir is
// Forwarding for an arrival (the kernel derives Delivering from the
// destination) or Sending for a packet the node originates, which is
// never TTL-decremented and stays Sending unless a rewrite makes it
// local.
func (v *NodeView) Decide(tip *packet.TIP, data []byte, dir Direction) HopDecision {
	if dir != Sending && v.owns(tip.Dst) {
		dir = Delivering
	}
	// Middlebox chain (single-pass: see the Middlebox interface comment).
	// Devices with a decoded-view entry classify tip through the bound
	// view; the rest get the bytes.
	if len(v.Middleboxes) != 0 {
		v.pkt.bind(data, tip)
	}
	for _, m := range v.Middleboxes {
		var out []byte
		var verdict Verdict
		if pm, ok := m.(PacketMiddlebox); ok {
			out, verdict = pm.ProcessPacket(v.ID, dir, &v.pkt)
		} else {
			out, verdict = m.Process(v.ID, dir, data)
		}
		if v.OnMbox != nil {
			v.OnMbox(v.ID, m, verdict != Drop && out != nil)
		}
		if verdict == Drop {
			if m.Silent() {
				return drop(DropLost, DropLost.String())
			}
			return drop(DropBlocked, v.Reasons.blocked.Key(m.Name()))
		}
		if out != nil {
			data = out
			if err := tip.DecodeReuse(out); err != nil {
				return drop(DropMalformedAfter, v.Reasons.malformedAfter.Key(m.Name()))
			}
			v.pkt.bind(out, tip)
			if v.owns(tip.Dst) {
				dir = Delivering
			} else if dir == Delivering {
				dir = Forwarding
			}
		}
	}
	if dir == Delivering {
		return HopDecision{Kind: HopDeliver, Data: data}
	}
	transit := dir == Forwarding
	if transit {
		ttl, err := packet.DecrementTTL(data)
		if err != nil {
			return drop(DropMalformed, DropMalformed.String())
		}
		tip.TTL = ttl // keep the decoded header coherent with the bytes
		if ttl == 0 {
			return drop(DropTTL, DropTTL.String())
		}
	}
	next, link, sr, ok := v.nextHop(tip, data)
	switch {
	case !ok:
		return HopDecision{Kind: HopDrop, Drop: DropNoRoute, Reason: DropNoRoute.String(), Transit: transit, SourceRoute: sr}
	case link < 0:
		return HopDecision{Kind: HopDrop, Drop: DropBadNextHop, Reason: DropBadNextHop.String(), Transit: transit, SourceRoute: sr}
	}
	return HopDecision{Kind: HopForward, Next: next, Link: link, Data: data, Transit: transit, SourceRoute: sr}
}

// nextHop picks the egress neighbor and the link to it, honoring the
// packet's source route when the node's policy admits it.
func (v *NodeView) nextHop(tip *packet.TIP, data []byte) (next topology.NodeID, link int32, sr SourceRouteOutcome, ok bool) {
	dst := tip.Dst
	if v.HonorSourceRoutes {
		if wp, has := packet.PeekSourceRoute(data); has {
			sr = SourceRouteHonored
			if v.SourceRoutePolicy != nil {
				// Compiled admission policy: fail-safe deny, bounded by
				// the per-packet budget.
				if !v.SourceRoutePolicy.Allow(v.PolicySlots, tip, wp) {
					sr = SourceRouteDenied
				}
			} else if v.RequirePaymentForSourceRoute && tip.Payment == nil {
				sr = SourceRouteUnpaid
			}
			if sr == SourceRouteHonored {
				if wp == packet.MakeAddr(uint16(v.ID), 0) || wp.Provider() == uint16(v.ID) {
					// We are the current waypoint: advance to the next.
					nxt, advanced, err := packet.AdvanceSourceRoute(data)
					if err == nil {
						// Mirror the in-place pointer bump into the
						// decoded header (coherence rule).
						if advanced && tip.SourceRoute != nil && !tip.SourceRoute.Exhausted() {
							tip.SourceRoute.Ptr++
						}
						if nxt != packet.AddrNone {
							wp = nxt
						} else {
							wp = tip.Dst // route exhausted: head to destination
						}
					}
				}
				// Route toward the waypoint's provider; a direct
				// neighbor is used as is.
				target := topology.NodeID(wp.Provider())
				if target == v.ID {
					target = topology.NodeID(tip.Dst.Provider())
				}
				if li := v.Link(v.ID, target); li >= 0 {
					return target, li, sr, true
				}
				dst = packet.MakeAddr(uint16(target), 0)
			}
		}
	}
	if v.Route == nil {
		return 0, -1, sr, false
	}
	if next, ok = v.Route(dst, tip); !ok {
		return 0, -1, sr, false
	}
	return next, v.Link(v.ID, next), sr, true
}
