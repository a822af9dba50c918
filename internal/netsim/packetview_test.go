package netsim

import (
	"testing"

	"repro/internal/packet"
)

// referenceTTP is the transport header a classifier re-parsing the bytes
// finds: decode the network header, then, for a TTP packet, the TTP
// header. nil when either step fails or the packet is not TTP.
func referenceTTP(data []byte) *packet.TTP {
	var tip packet.TIP
	if tip.DecodeFrom(data) != nil || tip.Proto != packet.LayerTypeTTP {
		return nil
	}
	var ttp packet.TTP
	if ttp.DecodeFrom(tip.LayerPayload()) != nil {
		return nil
	}
	return &ttp
}

// TestPacketTTP: the view's lazily decoded transport header is nil
// exactly where re-parsing the bytes finds none, equals it elsewhere, is
// decoded once per binding, and a re-bind drops it.
func TestPacketTTP(t *testing.T) {
	tip := func(proto packet.LayerType) *packet.TIP {
		return &packet.TIP{TTL: 5, Proto: proto, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(2, 2)}
	}
	serialize := func(layers ...packet.SerializableLayer) []byte {
		data, err := packet.Serialize(layers...)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ttp := &packet.TTP{SrcPort: 1234, DstPort: 80, Seq: 9, Flags: packet.FlagSYN, Next: packet.LayerTypeRaw, Window: 2}
	long := make([]byte, 40) // long enough to decode as a TTP header
	cases := map[string][]byte{
		"ttp":              serialize(tip(packet.LayerTypeTTP), ttp, &packet.Raw{Data: []byte("payload")}),
		"ttp-empty":        serialize(tip(packet.LayerTypeTTP), ttp, &packet.Raw{}),
		"raw":              serialize(tip(packet.LayerTypeRaw), &packet.Raw{Data: long}),
		"crypto":           serialize(tip(packet.LayerTypeCrypto), &packet.Raw{Data: long}),
		"ttp-truncated":    serialize(tip(packet.LayerTypeTTP), &packet.Raw{Data: long[:15]}),
		"undecodable-tip":  {0x18, 0x01, 0x02},
		"undecodable-long": append([]byte{0x20}, long...),
	}
	for name, data := range cases {
		var scratch packet.TIP
		p := Packet{Data: data, TIP: DecodeTIP(data, &scratch)}
		want := referenceTTP(data)
		got := p.TTP()
		switch {
		case (got == nil) != (want == nil):
			t.Fatalf("%s: TTP() = %v, re-parse finds %v", name, got, want)
		case got != nil && (got.SrcPort != want.SrcPort || got.DstPort != want.DstPort || got.Seq != want.Seq ||
			got.Flags != want.Flags || got.Next != want.Next || got.Window != want.Window ||
			string(got.LayerPayload()) != string(want.LayerPayload())):
			t.Fatalf("%s: TTP() = %+v, re-parse finds %+v", name, got, want)
		}
		if again := p.TTP(); again != got {
			t.Fatalf("%s: second TTP() call gave a different header", name)
		}
	}

	// A re-bind drops the cached header: a view bound to a TTP packet and
	// then to a raw one must not keep answering with the old header.
	var v Packet
	var scratch packet.TIP
	for _, name := range []string{"ttp", "raw", "ttp", "crypto"} {
		data := cases[name]
		if err := scratch.DecodeReuse(data); err != nil {
			t.Fatal(err)
		}
		v.bind(data, &scratch)
		if got, want := v.TTP(), referenceTTP(data); (got == nil) != (want == nil) {
			t.Fatalf("re-bound to %s: TTP() = %v, want %v", name, got, want)
		}
	}
}
