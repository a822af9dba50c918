package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// wire-transit: syscall batching, the receive arena and filter/decode do
// almost all the work, per packet at the smallest size. The scheduler
// and route tables are bypassed, and Dataplane.Process is a sliver of
// the op.

const (
	// transitWindow is the client's closed-loop window: far below the
	// socket receive buffers, so the load is lossless by construction.
	transitWindow = 64
	// transitHalf is the client's batch: it refills the window once
	// this many datagrams have come back.
	transitHalf = transitWindow / 2
	// transitPayload is the datagram payload: an 8-byte sequence
	// number and an 8-byte seed-derived tag.
	transitPayload = 16
	// transitDeadline bounds the wait for any reply; expiry writes the
	// outstanding datagrams off as failed ops.
	transitDeadline = time.Second
	// transitRing tracks send times per sequence number.
	transitRing = 4096
)

// Engine node layout: the engine is node 2 forwarding toward node 1,
// whose address is the client's own socket.
const (
	transitNode = topology.NodeID(2)
	clientNode  = topology.NodeID(1)
)

type transitParams struct {
	seed   uint64
	dur    time.Duration
	setups int
	// warmup is the number of round trips each set-up runs.
	warmup int
	// traceOps is the traced pass's fixed round-trip count, and
	// allocOps the count the allocation probe measures.
	traceOps, allocOps int
	// mangle, if set, is the engine's middlebox chain (the tests use it
	// to corrupt datagrams).
	mangle netsim.Middlebox
}

func defaultTransitParams(seed uint64, dur time.Duration) transitParams {
	return transitParams{seed: seed, dur: dur, setups: 5, warmup: 20_000, traceOps: 400_000, allocOps: 20_000}
}

// transitRig is one engine plus the client socket driving it.
type transitRig struct {
	eng  *wire.Engine
	done chan struct{}
	c    *transitClient
}

func (r *transitRig) close() {
	r.eng.Close()
	<-r.done
	r.c.conn.Close()
}

// transitDatagram builds the datagram the client sends and the bytes it
// must get back: the engine forwards it unchanged apart from the TTL
// decrement and its checksum repair.
func transitDatagram(seed uint64) (send, want []byte, err error) {
	payload := make([]byte, transitPayload)
	binary.LittleEndian.PutUint64(payload[8:], sim.NewRNG(seed).Uint64())
	send, err = packet.Serialize(
		&packet.TIP{TTL: 64, Proto: packet.LayerTypeRaw,
			Src: packet.MakeAddr(3, 1), Dst: packet.MakeAddr(uint16(clientNode), 1)},
		&packet.Raw{Data: payload})
	if err != nil {
		return nil, nil, err
	}
	want = append([]byte(nil), send...)
	if _, err := packet.DecrementTTL(want); err != nil {
		return nil, nil, err
	}
	return send, want, nil
}

// newTransitRig binds the client socket, starts the engine with the
// client as its only peer, and warms the path up.
func newTransitRig(p transitParams) (*transitRig, error) {
	send, want, err := transitDatagram(p.seed)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		return nil, fmt.Errorf("client socket: %w", err)
	}
	var chain []netsim.Middlebox
	if p.mangle != nil {
		chain = append(chain, p.mangle)
	}
	eng, err := wire.New(wire.Config{
		Listen:  "127.0.0.1:0",
		Workers: 1,
		NewDataplane: func() *wire.Dataplane {
			return wire.NewDataplane(wire.NodeConfig{
				ID: transitNode,
				Route: func(dst packet.Addr, _ *packet.TIP) (topology.NodeID, bool) {
					return clientNode, dst.Provider() == uint16(clientNode)
				},
				Middleboxes: chain,
				Peers:       []topology.NodeID{clientNode},
			})
		},
		Peers: map[topology.NodeID]netip.AddrPort{clientNode: conn.LocalAddr().(*net.UDPAddr).AddrPort()},
	})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("engine: %w", err)
	}
	r := &transitRig{eng: eng, done: make(chan struct{})}
	go func() {
		eng.Run()
		close(r.done)
	}()
	r.c, err = newTransitClient(conn, eng.Addr(), send, want)
	if err == nil {
		_, err = r.c.loop(p.warmup, 0, nil)
	}
	if err != nil {
		r.eng.Close()
		<-r.done
		conn.Close()
		return nil, err
	}
	return r, nil
}

// Per-sequence-number slot states.
const (
	slotDone = iota // resolved, or never used
	slotOpen        // sent, reply outstanding
	slotLost        // written off at a deadline expiry
)

// transitClient is the benchmark-owned closed-loop client. It polls its
// socket rather than parking in the netpoller: parking makes every
// round trip pay a thread wake-up, whose cost on a virtual machine
// swings with the host's load far more than the work being measured.
type transitClient struct {
	conn   *net.UDPConn
	rc     syscall.RawConn
	dst    netip.AddrPort
	send   []byte
	want   []byte
	off    int // payload offset of the sequence number
	rbuf   []byte
	readFn func(fd uintptr) bool // prebuilt so a poll allocates nothing
	rn     int
	rerr   syscall.Errno

	sentAt  [transitRing]int64
	slotSeq [transitRing]uint64
	state   [transitRing]uint8
	next    uint64
	out     int
	epoch   time.Time

	failed, sendErrs, okOps int64
	// sendSpans and waitSpans, when non-nil, collect each batch's send
	// phase and wait phase in microseconds.
	sendSpans, waitSpans []float64
}

func newTransitClient(conn *net.UDPConn, dst netip.AddrPort, send, want []byte) (*transitClient, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	c := &transitClient{conn: conn, rc: rc, dst: dst, send: send, want: want,
		off: len(send) - transitPayload, rbuf: make([]byte, 2048), epoch: time.Now()}
	c.readFn = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVFROM, fd,
			uintptr(unsafe.Pointer(&c.rbuf[0])), uintptr(len(c.rbuf)), syscall.MSG_DONTWAIT, 0, 0)
		c.rn, c.rerr = int(n), errno
		return true
	}
	return c, nil
}

func (c *transitClient) now() int64 { return int64(time.Since(c.epoch)) }

// loop runs the closed loop until count datagrams have been sent (count
// > 0) or until dur has passed (count == 0), then collects every
// outstanding reply. It returns the number of datagrams attempted and
// records each intact reply's latency in lat when lat is non-nil.
func (c *transitClient) loop(count int, dur time.Duration, lat *sampler) (int64, error) {
	var attempted int64
	start := time.Now()
	for {
		more := (count > 0 && attempted < int64(count)) || (count == 0 && time.Since(start) < dur)
		if !more && c.out == 0 {
			return attempted, nil
		}
		if more && c.out <= transitWindow-transitHalf {
			t0 := time.Now()
			for c.out < transitWindow && (count == 0 || attempted < int64(count)) {
				seq := c.next
				c.next++
				binary.LittleEndian.PutUint64(c.send[c.off:], seq)
				slot := seq % transitRing
				c.slotSeq[slot], c.state[slot] = seq, slotOpen
				c.sentAt[slot] = c.now()
				attempted++
				if _, err := c.conn.WriteToUDPAddrPort(c.send, c.dst); err != nil {
					// A refused send is a failed op; let the replies
					// drain before pushing again.
					c.state[slot] = slotDone
					c.sendErrs++
					c.failed++
					break
				}
				c.out++
			}
			if c.sendSpans != nil {
				c.sendSpans = append(c.sendSpans, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			continue
		}
		t0 := time.Now()
		if err := c.recvBatch(lat); err != nil {
			return attempted, err
		}
		if c.waitSpans != nil {
			c.waitSpans = append(c.waitSpans, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
}

// recvBatch polls until half a window has come back or the window is
// empty. transitDeadline without any reply writes off every outstanding
// datagram.
func (c *transitClient) recvBatch(lat *sampler) error {
	last := time.Now()
	for got := 0; got < transitHalf && c.out > 0; {
		if err := c.rc.Read(c.readFn); err != nil {
			return err
		}
		switch c.rerr {
		case 0:
		case syscall.EAGAIN:
			if time.Since(last) > transitDeadline {
				c.writeOff()
				return nil
			}
			continue
		default:
			return fmt.Errorf("client recv: %w", c.rerr)
		}
		last = time.Now()
		got++
		c.check(c.rbuf[:c.rn], lat)
	}
	return nil
}

// check verifies one reply: its sequence number must be outstanding and
// the bytes must equal what was sent, forwarded.
func (c *transitClient) check(b []byte, lat *sampler) {
	if len(b) != len(c.want) {
		c.failed++
		return
	}
	seq := binary.LittleEndian.Uint64(b[c.off:])
	slot := seq % transitRing
	if seq >= c.next || c.slotSeq[slot] != seq || c.state[slot] == slotDone {
		// Never sent, or already resolved: a corrupted sequence number
		// or a duplicate.
		c.failed++
		return
	}
	if c.state[slot] == slotLost {
		// A late reply to a datagram already counted as lost.
		c.state[slot] = slotDone
		return
	}
	c.state[slot] = slotDone
	c.out--
	binary.LittleEndian.PutUint64(c.want[c.off:], seq)
	if !bytes.Equal(b, c.want) {
		c.failed++
		return
	}
	c.okOps++
	if lat != nil {
		lat.record(float64(c.now()-c.sentAt[slot])/1e3, 1)
	}
}

// writeOff counts every outstanding datagram as lost.
func (c *transitClient) writeOff() {
	for i, st := range c.state {
		if st == slotOpen {
			c.state[i] = slotLost
			c.failed++
		}
	}
	c.out = 0
}

// runWireTransit is the end-to-end run: one op is one datagram sent,
// forwarded by the engine and received back intact; its latency runs
// from client send to client receive.
func runWireTransit(p transitParams) (*outcome, error) {
	r, setup, err := setUp(p.setups, func() (*transitRig, error) { return newTransitRig(p) }, (*transitRig).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	o := &outcome{setup: setup, lat: newSampler()}
	c := r.c
	start := time.Now()
	o.attempted, err = c.loop(0, p.dur, o.lat)
	if err != nil {
		return nil, err
	}
	o.timed = time.Since(start)
	o.failed = c.failed
	o.ops = c.okOps
	return o, nil
}

// traceWireTransit is the traced pass: a fixed number of round trips
// with the client's send and wait phases timed per batch, the engine's
// counters read around them, the allocation probe, and filter/decode
// on the transit datagram.
func traceWireTransit(p transitParams) (*outcome, error) {
	r, setup, err := setUp(1, func() (*transitRig, error) { return newTransitRig(p) }, (*transitRig).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	o := &outcome{setup: setup, lat: newSampler(), layers: map[string]metric{}}
	c := r.c
	c.sendSpans, c.waitSpans = make([]float64, 0, p.traceOps), make([]float64, 0, p.traceOps)
	before := r.eng.Stats()
	start := time.Now()
	o.attempted, err = c.loop(p.traceOps, 0, o.lat)
	if err != nil {
		return nil, err
	}
	o.timed = time.Since(start)
	after := r.settledStats(before, uint64(o.attempted))
	o.ops = c.okOps
	ops := float64(o.attempted)
	o.layers["wire.client_send_us"] = metric{median(c.sendSpans), "us"}
	o.layers["wire.client_wait_us"] = metric{median(c.waitSpans), "us"}
	o.layers["wire.rx_per_op"] = metric{float64(after.Received-before.Received) / ops, "dgrams/op"}
	o.layers["wire.tx_per_op"] = metric{float64(after.Sent-before.Sent) / ops, "dgrams/op"}
	o.layers["wire.drops_per_op"] = metric{float64(after.TotalDropped()-before.TotalDropped()) / ops, "dgrams/op"}
	o.layers["wire.nopeer_per_op"] = metric{float64(after.NoPeer-before.NoPeer) / ops, "dgrams/op"}
	o.layers["wire.send_errors"] = metric{float64(after.SendErrors-before.SendErrors) + float64(c.sendErrs), "count"}

	c.sendSpans, c.waitSpans = nil, nil
	var probeErr error
	o.layers["wire.allocs_per_op"] = metric{allocsPerOp(allocRuns, p.allocOps, func() {
		n, err := c.loop(p.allocOps, 0, nil)
		o.attempted += n
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}), "allocs/op"}
	if probeErr != nil {
		return nil, probeErr
	}
	o.failed = c.failed

	dgram := append([]byte(nil), c.send...)
	o.layers["packet.filter_ns.transit"] = metric{nsPerOp(1<<22, func(n int) {
		for i := 0; i < n; i++ {
			packet.Filter(dgram)
		}
	}), "ns"}
	var tip packet.TIP
	o.layers["packet.decode_ns.transit"] = metric{nsPerOp(1<<22, func(n int) {
		for i := 0; i < n; i++ {
			_ = tip.DecodeReuse(dgram)
		}
	}), "ns"}
	return o, nil
}

// settledStats reads the engine's counters once they account for n
// more datagrams received and sent than before, or after a second. A
// worker publishes its counters after transmitting a batch, so the
// client can hold every reply before the counters show them.
func (r *transitRig) settledStats(before wire.Stats, n uint64) wire.Stats {
	deadline := time.Now().Add(time.Second)
	for {
		st := r.eng.Stats()
		if st.Received-before.Received >= n && st.Sent-before.Sent >= n || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// nsPerOp times f(n) and returns nanoseconds per op, after a warm-up
// call of n/16 ops.
func nsPerOp(n int, f func(n int)) float64 {
	f(n / 16)
	t0 := time.Now()
	f(n)
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
