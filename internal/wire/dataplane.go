package wire

import (
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/topology"
)

// NodeConfig describes the forwarding personality of a wire node — the
// same knobs a netsim.Node exposes, so one spec can configure both the
// live engine and its simulator twin.
type NodeConfig struct {
	ID topology.NodeID
	// Route computes next hops; nil means the node can only deliver.
	Route netsim.RouteFunc
	// HonorSourceRoutes / RequirePaymentForSourceRoute mirror the
	// netsim.Node fields (the §V-A4 source-routing tussle knobs).
	HonorSourceRoutes            bool
	RequirePaymentForSourceRoute bool
	// SourceRoutePolicy is the compiled, metered admission program
	// (netsim.CompileSourceRoutePolicy); while set it replaces the
	// payment boolean, exactly as Node.SetSourceRoutePolicy does in the
	// simulator. The compiled object is immutable and may be shared
	// across workers; each Dataplane keeps its own evaluation scratch.
	SourceRoutePolicy *netsim.SourceRoutePolicy
	// Middleboxes are processed in installation order, single-pass,
	// with the exact netsim chain semantics. Stateful implementations
	// (NAT) are not goroutine-safe: build a fresh chain per Dataplane
	// (see Engine's NewDataplane factory).
	Middleboxes []netsim.Middlebox
	// Peers are the node's direct neighbors — the wire analogue of the
	// topology adjacency netsim consults for bad-next-hop detection and
	// direct source-route waypoints.
	Peers []topology.NodeID
}

// Dataplane is one worker's adapter around the forwarding kernel
// (netsim.NodeView.Decide) — the same code a netsim node decides with.
// It adds only what the live engine owns: the raw-byte sanity filter and
// decode ahead of the kernel, its per-decision counters, and the Decision
// value. One Dataplane is owned by one worker goroutine; Process reuses
// its decode scratch and allocates nothing.
type Dataplane struct {
	view netsim.NodeView
	peer []bool // dense adjacency, indexed by NodeID

	tip packet.TIP // decode scratch, reused across packets

	o *dpObs // nil when observability is off (single nil check per site)
}

// dpObs bundles the dataplane's pre-bound observability instruments,
// mirroring the netsim seam: every site is behind a nil check so the
// zero-alloc contract holds with obs off.
type dpObs struct {
	processed *obs.Counter
	delivered *obs.Counter
	forwarded *obs.Counter
	drops     *obs.Counter
	mboxRuns  *obs.Counter
	rewrites  *obs.Counter
	mboxDrops *obs.Counter
}

// NewDataplane builds the kernel adapter for one node personality.
func NewDataplane(cfg NodeConfig) *Dataplane {
	d := &Dataplane{view: netsim.NodeView{
		ID:                           cfg.ID,
		Route:                        cfg.Route,
		HonorSourceRoutes:            cfg.HonorSourceRoutes,
		RequirePaymentForSourceRoute: cfg.RequirePaymentForSourceRoute,
		SourceRoutePolicy:            cfg.SourceRoutePolicy,
		Middleboxes:                  cfg.Middleboxes,
		AddrShift:                    16, // provider addressing, the netsim default
		Reasons:                      netsim.NewReasonKeys(),
	}}
	d.view.Link = d.link
	maxID := cfg.ID
	for _, p := range cfg.Peers {
		if p > maxID {
			maxID = p
		}
	}
	d.peer = make([]bool, maxID+1)
	for _, p := range cfg.Peers {
		d.peer[p] = true
	}
	if cfg.SourceRoutePolicy != nil {
		d.view.PolicySlots = cfg.SourceRoutePolicy.NewScratch()
	}
	return d
}

// Node returns the node identity this dataplane decides for.
func (d *Dataplane) Node() topology.NodeID { return d.view.ID }

// AttachObs enables per-decision observability counters on reg; nil
// disables them again.
func (d *Dataplane) AttachObs(reg *obs.Registry) {
	if reg == nil {
		d.o = nil
		d.view.OnMbox = nil
		return
	}
	d.o = &dpObs{
		processed: reg.Counter("wire.processed"),
		delivered: reg.Counter("wire.delivered"),
		forwarded: reg.Counter("wire.forwarded"),
		drops:     reg.Counter("wire.drops"),
		mboxRuns:  reg.Counter("wire.mbox.runs"),
		rewrites:  reg.Counter("wire.mbox.rewrites"),
		mboxDrops: reg.Counter("wire.mbox.drops"),
	}
	d.view.OnMbox = d.o.observeMbox
}

// observeMbox is the kernel's middlebox hook while obs is on.
func (o *dpObs) observeMbox(_ topology.NodeID, _ netsim.Middlebox, rewrote bool) {
	o.mboxRuns.Inc()
	if rewrote {
		o.rewrites.Inc()
	}
}

// link is the kernel's adjacency test: a wire node has peers, not link
// indexes, so any neighbor answers 0.
func (d *Dataplane) link(_, to topology.NodeID) int32 {
	if int(to) < len(d.peer) && d.peer[to] {
		return 0
	}
	return -1
}

// Process decides one datagram's fate. data is the raw wire bytes (the
// receive slot, sliced to the datagram length); it may be patched in
// place (TTL decrement, source-route advance) and the returned
// Decision.Data may alias it. The decision — and every reason string —
// is the one netsim.InjectArrival at the same node records, since both
// run the same kernel; the differential tests pin it.
func (d *Dataplane) Process(data []byte) Decision {
	var dec Decision
	// Cheap structural sanity before committing to a full decode. The
	// filter is sound (never rejects decodable bytes), so folding its
	// rejects into "malformed" keeps the decision vocabulary identical
	// to the simulator, which only has the decoder.
	if packet.Filter(data) != packet.FilterAccept || d.tip.DecodeReuse(data) != nil {
		dec = Decision{Kind: Dropped, Drop: DropMalformed, Reason: DropMalformed.String()}
	} else {
		dec = d.view.Decide(&d.tip, data, netsim.Forwarding)
	}
	if d.o != nil {
		d.o.count(dec)
	}
	return dec
}

// count tallies one decision.
func (o *dpObs) count(dec Decision) {
	o.processed.Inc()
	switch dec.Kind {
	case Deliver:
		o.delivered.Inc()
	case Forward:
		o.forwarded.Inc()
	default:
		o.drops.Inc()
		if dec.Drop == DropBlocked || dec.Drop == DropLost {
			o.mboxDrops.Inc()
		}
	}
}
