// Package wire puts the TIP data plane on real UDP sockets: the "live
// wire mode" counterpart to the internal/netsim simulator. An Engine
// binds one socket per worker (SO_REUSEPORT on Linux), receives
// datagrams in batches (recvmmsg/sendmmsg where available, a portable
// single-syscall loop elsewhere), runs each through the cheap raw-byte
// sanity filter (packet.Filter) and then a Dataplane — an adapter around
// netsim's forwarding kernel (netsim.NodeView.Decide), so the middlebox
// chain, source-route policy and routing decision are the very code a
// netsim node runs — and transmits forwards and echoes in batches.
//
// # Zero-allocation steady state
//
// The receive path mirrors the netsim flight-pool discipline: every
// worker owns a fixed Arena of receive slots, a reusable packet.TIP
// decode scratch (DecodeReuse), preallocated batch headers, and a
// per-reason stat table indexed by small integers — so the steady-state
// recv→filter→decide→send path performs zero heap allocations per
// packet. Drop reasons are literals, or per-middlebox strings interned
// on their first use, never concatenated per packet.
//
// # Determinism twin
//
// The simulator remains the deterministic twin of the live engine: for
// any datagram bytes, Dataplane.Process and netsim.Network.InjectArrival
// at the same node must produce the identical decision — deliver,
// forward to the same next hop, or drop with the same reason, including
// "malformed" for bytes the sanity filter or decoder rejects. Both decide
// through the one kernel, so what the differential tests in this package
// pin is what each engine adds around it (the sanity filter and decode
// here, the arrival path there), with golden byte streams (clean,
// malformed, and middlebox-rewritten); the invariant machinery can
// therefore convict the live engine by replaying its traffic through
// the sim.
package wire

import "repro/internal/netsim"

// DecisionKind classifies what the dataplane decided to do with a
// datagram: the forwarding kernel's own decision kinds.
type DecisionKind = netsim.HopKind

// Decision kinds.
const (
	// Deliver: the datagram terminates at this node.
	Deliver = netsim.HopDeliver
	// Forward: the datagram continues to Decision.Next.
	Forward = netsim.HopForward
	// Dropped: the datagram is discarded for Decision.Reason.
	Dropped = netsim.HopDrop
)

// DropKind indexes the fixed per-reason drop-statistics table. It is the
// forwarding kernel's drop vocabulary, so the engine and the simulator
// count drops by the same kinds; the human-readable reason (including
// the middlebox name for blocked / malformed-after drops) travels
// separately in Decision.Reason.
type DropKind = netsim.DropKind

// Drop kinds. DropMalformed also covers bytes the sanity filter rejects.
const (
	DropMalformed      = netsim.DropMalformed
	DropTTL            = netsim.DropTTL
	DropNoRoute        = netsim.DropNoRoute
	DropBadNextHop     = netsim.DropBadNextHop
	DropBlocked        = netsim.DropBlocked
	DropLost           = netsim.DropLost
	DropMalformedAfter = netsim.DropMalformedAfter

	// DropKinds is the number of distinct drop kinds (for stats arrays).
	DropKinds = netsim.DropKinds
)

// Decision is the dataplane's verdict on one datagram: the forwarding
// kernel's own value (see netsim.HopDecision). Data may alias the input
// buffer or a middlebox's own buffer; it is valid until the next Process
// call on the same Dataplane.
type Decision = netsim.HopDecision
