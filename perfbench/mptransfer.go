package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport/multipath"
	"repro/internal/wire"
)

// mp-transfer: the transport/multipath state machine, wall-clock RTO
// timers and reassembly do most of the work. It uses the wire layer the
// opposite way from wire-transit — reliable, ACK-paced, mid-size
// segments both ways instead of stateless forwarding of minimum-size
// datagrams — so an engine change that helps one and costs the other
// shows.

const (
	mpBytes    = 256 << 10
	mpSegment  = 512
	mpWindow   = 32
	mpPaths    = 3
	mpPort     = 7900
	mpRing     = 256
	mpDeadline = 5 * time.Second
)

type mpParams struct {
	seed   uint64
	dur    time.Duration
	bytes  int
	setups int
	// warmup is the number of transfers each set-up runs.
	warmup int
	// traceOps is the traced pass's fixed transfer count, and allocOps
	// the number of single transfers the allocation probe measures.
	traceOps, allocOps int
	// mangle, if set, sits in the engine's middlebox chain (the tests
	// use it to corrupt segments).
	mangle netsim.Middlebox
}

func defaultMPParams(seed uint64, dur time.Duration) mpParams {
	return mpParams{seed: seed, dur: dur, bytes: mpBytes, setups: 5, warmup: 10, traceOps: 300, allocOps: 21}
}

// mpRig is the receiving engine plus the seeded payload.
type mpRig struct {
	eng     *wire.Engine
	done    chan struct{}
	rcv     atomic.Pointer[wire.MultipathReceiver]
	payload []byte
	sum     [32]byte
	seed    uint64
	// warmFailed counts warm-up transfers that failed their check.
	warmFailed int64
}

func (r *mpRig) close() {
	r.eng.Close()
	<-r.done
}

// mpStats accumulates the per-transfer counters the traced run reports.
type mpStats struct {
	transfers, segments     int
	retx, probes, demotions int
	acks, dups              uint64
	pathSegs                [mpPaths + 1]int
	senderNew, wait         []float64
}

func newMPRig(p mpParams) (*mpRig, error) {
	r := &mpRig{done: make(chan struct{}), seed: p.seed}
	rng := sim.NewRNG(p.seed)
	r.payload = make([]byte, p.bytes)
	for i := range r.payload {
		r.payload[i] = byte(rng.Uint64())
	}
	r.sum = sha256.Sum256(r.payload)
	r.rcv.Store(wire.NewMultipathReceiver(0, mpPort, mpRing))
	cfg := wire.Config{
		Listen:  "127.0.0.1:0",
		Workers: 1,
		Deliver: func(data []byte, from netip.AddrPort) []byte {
			return r.rcv.Load().Deliver(data, from)
		},
	}
	if p.mangle != nil {
		cfg.NewDataplane = func() *wire.Dataplane {
			return wire.NewDataplane(wire.NodeConfig{ID: 0, Middleboxes: []netsim.Middlebox{p.mangle}})
		}
	}
	eng, err := wire.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	r.eng = eng
	go func() {
		eng.Run()
		close(r.done)
	}()
	for i := 0; i < p.warmup; i++ {
		_, err := r.transfer(nil)
		if err == errTransferFailed {
			r.warmFailed++
		} else if err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// transfer runs one striped transfer into a fresh receiver. It returns
// whether the transfer completed byte-exact with all paths carrying
// segments, and the op latency: NewMultipathSender to Wait returning.
func (r *mpRig) transfer(st *mpStats) (time.Duration, error) {
	rcv := wire.NewMultipathReceiver(0, mpPort, mpRing)
	r.rcv.Store(rcv)
	tcfg := multipath.DefaultConfig()
	tcfg.Seed = r.seed
	tcfg.Window = mpWindow
	tcfg.SegmentSize = mpSegment
	paths := make([]wire.MPPath, mpPaths)
	for i := range paths {
		paths[i] = wire.MPPath{Via: r.eng.Addr(), Latency: sim.Millisecond}
	}
	t0 := time.Now()
	snd, err := wire.NewMultipathSender(wire.MultipathSenderConfig{
		Transport: tcfg, Strategy: &multipath.ShortestK{},
		Src: 1, Dst: 0, Port: mpPort, Paths: paths,
	}, r.payload)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	snd.Start()
	finished := snd.Wait(mpDeadline)
	t2 := time.Now()
	ss := snd.Stats()
	snd.Close()
	sum := rcv.Summary()
	ok := finished && ss.Done && !ss.Failed && sum.Bytes == len(r.payload) && sum.SHA256 == r.sum
	for w := 1; w <= mpPaths; w++ {
		ok = ok && sum.PathSegments[w] > 0
	}
	if st != nil {
		st.transfers++
		st.segments += ss.Segments
		st.retx += ss.Retransmissions
		st.probes += ss.Probes
		st.demotions += ss.Demotions
		st.acks += sum.Acks
		st.dups += uint64(sum.Dups)
		for w := 1; w <= mpPaths; w++ {
			st.pathSegs[w] += sum.PathSegments[w]
		}
		st.senderNew = append(st.senderNew, float64(t1.Sub(t0).Nanoseconds())/1e3)
		st.wait = append(st.wait, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	if !ok {
		return t2.Sub(t0), errTransferFailed
	}
	return t2.Sub(t0), nil
}

// errTransferFailed marks a transfer whose output check failed: it is
// a failed op, not a benchmark error.
var errTransferFailed = errors.New("transfer failed its check")

// runMPTransfer is the end-to-end run: one op is one 256 KiB transfer,
// fully acknowledged and reassembled byte-exact.
func runMPTransfer(p mpParams) (*outcome, error) {
	r, setup, err := setUp(p.setups, func() (*mpRig, error) { return newMPRig(p) }, (*mpRig).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	o := &outcome{setup: setup, lat: newSampler(), failed: r.warmFailed}
	start := time.Now()
	for time.Since(start) < p.dur {
		if err := o.record(r.transfer(nil)); err != nil {
			return nil, err
		}
	}
	o.timed = time.Since(start)
	return o, nil
}

// record accounts one transfer's result.
func (o *outcome) record(d time.Duration, err error) error {
	o.attempted++
	switch err {
	case nil:
		o.ops++
		o.lat.record(float64(d.Nanoseconds())/1e3, 1)
	case errTransferFailed:
		o.failed++
	default:
		return err
	}
	return nil
}

// traceMPTransfer is the traced pass: a fixed number of transfers with
// the sender's construction and its wait timed apart, the state
// machine's and the receiver's counters summed, and the pinned
// allocation count per segment.
func traceMPTransfer(p mpParams) (*outcome, error) {
	r, setup, err := setUp(1, func() (*mpRig, error) { return newMPRig(p) }, (*mpRig).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	o := &outcome{setup: setup, lat: newSampler(), failed: r.warmFailed, layers: map[string]metric{}}
	var st mpStats
	start := time.Now()
	for i := 0; i < p.traceOps; i++ {
		if err := o.record(r.transfer(&st)); err != nil {
			return nil, err
		}
	}
	o.timed = time.Since(start)
	segs := float64(st.segments)
	o.layers["multipath.sender_new_us"] = metric{median(st.senderNew), "us"}
	o.layers["multipath.wait_us"] = metric{median(st.wait), "us"}
	o.layers["multipath.retx_ratio"] = metric{float64(st.retx) / segs, "ratio"}
	o.layers["multipath.probes_per_op"] = metric{float64(st.probes) / float64(st.transfers), "probes/op"}
	o.layers["multipath.demotions_per_op"] = metric{float64(st.demotions) / float64(st.transfers), "demotions/op"}
	accepted := 0
	for _, n := range st.pathSegs {
		accepted += n
	}
	share := 1.0
	for w := 1; w <= mpPaths; w++ {
		share = min(share, float64(st.pathSegs[w])/float64(accepted))
	}
	o.layers["multipath.path_share_min"] = metric{share, "ratio"}
	o.layers["wire.mprecv_dup_ratio"] = metric{float64(st.dups) / segs, "ratio"}
	o.layers["wire.acks_per_segment"] = metric{float64(st.acks) / segs, "acks/seg"}

	var probeErr error
	segsPerTransfer := (p.bytes + mpSegment - 1) / mpSegment
	o.layers["multipath.allocs_per_segment"] = metric{allocsPerOp(p.allocOps, segsPerTransfer, func() {
		_, err := r.transfer(nil)
		o.attempted++
		if err == errTransferFailed {
			o.failed++
		} else if err != nil && probeErr == nil {
			probeErr = err
		}
	}), "allocs/seg"}
	return o, probeErr
}
