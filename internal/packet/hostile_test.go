package packet

import (
	"errors"
	"testing"
)

// Tests for decoder behavior under hostile wire input: the properties a
// UDP-facing worker depends on when it reuses one scratch TIP across
// pooled receive buffers. See the DecodeReuse doc comment for the
// aliasing and pooling contract being pinned here.

// craftHeader builds a syntactically plausible TIP header by hand: fixed
// fields, a caller-supplied options region, and a correct checksum — so
// tests can make exactly one thing wrong at a time.
func craftHeader(t *testing.T, opts []byte) []byte {
	t.Helper()
	if len(opts)%8 != 0 {
		t.Fatalf("options region must be a multiple of 8 bytes, got %d", len(opts))
	}
	hlen := tipMinHeader + len(opts)
	b := make([]byte, hlen)
	b[0] = tipVersion<<4 | byte(hlen/8)
	putU16(b[2:], uint16(hlen)) // total = header, no payload
	b[4] = 9                    // TTL
	b[5] = byte(LayerTypeRaw)
	putAddr(b[8:], MakeAddr(1, 1))
	putAddr(b[12:], MakeAddr(2, 2))
	copy(b[tipMinHeader:], opts)
	putU16(b[6:], Checksum(b))
	return b
}

func optionPacket(t *testing.T) []byte {
	t.Helper()
	data, err := Serialize(&TIP{
		TTL: 12, Proto: LayerTypeRaw,
		Src: MakeAddr(3, 1), Dst: MakeAddr(4, 1),
		SourceRoute: &SourceRouteOption{Hops: []Addr{MakeAddr(5, 1), MakeAddr(6, 1)}},
		Payment:     &PaymentOption{Payer: MakeAddr(3, 1), Payee: MakeAddr(5, 1), AmountMilli: 100, Nonce: 7, MAC: 99},
		Identity:    &IdentityOption{Scheme: IdentityCertified, ID: []byte("carol")},
	}, &Raw{Data: []byte("pay")})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeReuseSurvivesHostileInterleaving is the pooling gate: a
// scratch TIP alternating between malformed and option-bearing packets
// must stay allocation-free. Were the option structs pooled only on the
// exported fields, every malformed packet would strand them and force
// the next good decode to allocate all three afresh.
func TestDecodeReuseSurvivesHostileInterleaving(t *testing.T) {
	good := optionPacket(t)

	// Structurally valid header whose source-route body length is not
	// 1+4k: the option parser errors after the header sanity checks pass.
	badSR := craftHeader(t, []byte{optSourceRoute, 8, 0, 0, 0, 0, 0, 0})
	// Source route parses, then the payment option has an absurd length:
	// the parser fails *after* rebinding the source-route struct.
	badPay := craftHeader(t, []byte{
		optSourceRoute, 7, 0, 0x00, 0x05, 0x00, 0x01, // ptr 0, one hop 5.1
		optPayment, 4, 0, 0, // payment body must be 24 bytes, is 2
		optEnd, 0, 0, 0, 0,
	})

	var tip TIP
	if err := tip.DecodeFrom(good); err != nil {
		t.Fatalf("decode good packet: %v", err)
	}
	for _, bad := range [][]byte{badSR, badPay} {
		if err := tip.DecodeReuse(bad); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("hostile packet decoded to %v, want ErrBadHeader", err)
		}
		if err := tip.DecodeReuse(good); err != nil {
			t.Fatalf("re-decode good packet after hostile: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		_ = tip.DecodeReuse(badSR)
		_ = tip.DecodeReuse(badPay)
		if err := tip.DecodeReuse(good); err != nil {
			t.Fatalf("good packet stopped decoding: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hostile interleaving costs %.1f allocs per round, want 0 — the option pool is leaking on error paths", allocs)
	}
}

// TestDecodedOptionsDoNotAliasInput pins the copy-out side of the
// aliasing contract: after a decode, scribbling over the input buffer
// (as a pooled receive slot refill does) must not change the decoded
// option values — only the LayerContents/LayerPayload views may alias.
func TestDecodedOptionsDoNotAliasInput(t *testing.T) {
	data := optionPacket(t)
	var tip TIP
	if err := tip.DecodeFrom(data); err != nil {
		t.Fatal(err)
	}
	wantHops := append([]Addr(nil), tip.SourceRoute.Hops...)
	wantPay := *tip.Payment
	wantID := append([]byte(nil), tip.Identity.ID...)

	for i := range data {
		data[i] = 0xFF // pooled slot refilled by the next datagram
	}

	for i, h := range tip.SourceRoute.Hops {
		if h != wantHops[i] {
			t.Fatalf("source route hop %d changed after buffer reuse: %v -> %v", i, wantHops[i], h)
		}
	}
	if *tip.Payment != wantPay {
		t.Fatalf("payment changed after buffer reuse: %+v -> %+v", wantPay, *tip.Payment)
	}
	for i, b := range tip.Identity.ID {
		if b != wantID[i] {
			t.Fatalf("identity byte %d changed after buffer reuse", i)
		}
	}
	// The views, by contract, DO alias the (now clobbered) buffer.
	if tip.LayerContents()[0] != 0xFF {
		t.Fatal("LayerContents no longer aliases the input buffer — the zero-copy contract changed")
	}
}

// TestDecodeTruncatedAndOversized sweeps datagram-boundary cases a UDP
// socket actually produces: every truncation of a valid packet must be
// rejected or decode within bounds, and trailing garbage beyond the
// declared total length must be excluded from the payload view.
func TestDecodeTruncatedAndOversized(t *testing.T) {
	data := optionPacket(t)
	for cut := 0; cut < len(data); cut++ {
		var tip TIP
		if err := tip.DecodeFrom(data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(data))
		}
	}
	// MTU-sized receive buffer with the packet at the front: the decode
	// must stop at the total-length field, not the buffer end.
	slot := make([]byte, 2048)
	copy(slot, data)
	for i := len(data); i < len(slot); i++ {
		slot[i] = 0x5A
	}
	var tip TIP
	if err := tip.DecodeFrom(slot); err != nil {
		t.Fatalf("decode packet in oversized buffer: %v", err)
	}
	if got := len(tip.LayerContents()) + len(tip.LayerPayload()); got != len(data) {
		t.Fatalf("decoded views cover %d bytes, want %d (slack excluded)", got, len(data))
	}
}
