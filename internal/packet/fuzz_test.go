package packet

import (
	"bytes"
	"testing"
)

// Native fuzz targets for the wire parsers the host stack runs on every
// received frame. Each checks three properties on arbitrary input:
//
//   - no input panics;
//   - the by-value Parse* form and the pointer Unmarshal* form agree,
//     on every field and on the error;
//   - every successful parse re-encodes through MarshalTo to bytes that
//     parse back to the same value (options and reserved bits, which the
//     simulator never emits, are dropped by the re-encode).
//
// The seed corpus is the shape of the corruption sweeps elsewhere in the
// tree: valid encodings, every prefix of them, and each byte flipped by
// 0x01, 0x80 and 0xff. Run one target with, e.g.,
//
//	go test -run '^$' -fuzz '^FuzzParseTCPSegment$' -fuzztime 30s ./internal/packet

var (
	fuzzSrc = MustIP("10.0.0.1")
	fuzzDst = MustIP("10.0.0.2")
)

// addSweep seeds f with b, its prefixes and its single-byte flips; args
// builds the target's argument list from one input.
func addSweep(f *testing.F, b []byte, args func([]byte) []any) {
	f.Add(args(b)...)
	for n := 0; n < len(b); n++ {
		f.Add(args(b[:n])...)
	}
	for i := range b {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), b...)
			mut[i] ^= flip
			f.Add(args(mut)...)
		}
	}
}

// sameError reports whether two parse results failed alike.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// addrArgs passes an input with the fixed fuzz addresses.
func addrArgs(b []byte) []any { return []any{fuzzSrc.Uint32(), fuzzDst.Uint32(), b} }

func FuzzParseDatagram(f *testing.F) {
	tcp := &TCPSegment{SrcPort: 1000, DstPort: 80, Seq: 7, Flags: FlagSYN, Window: 65535}
	addSweep(f, NewDatagram(fuzzSrc, fuzzDst, ProtoTCP, 1, tcp.Marshal(fuzzSrc, fuzzDst)).Marshal(), func(b []byte) []any { return []any{b} })
	frag := NewDatagram(fuzzSrc, fuzzDst, ProtoUDP, 9, []byte("fragment body"))
	frag.Header.DontFrag, frag.Header.MoreFrags, frag.Header.FragOffset = false, true, 64
	f.Add(frag.Marshal())

	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := ParseDatagram(b)
		pd, perr := UnmarshalDatagram(b)
		if !sameError(err, perr) {
			t.Fatalf("ParseDatagram error %v, UnmarshalDatagram error %v", err, perr)
		}
		if err != nil {
			return
		}
		if pd.Header != d.Header || !bytes.Equal(pd.Payload, d.Payload) {
			t.Fatalf("ParseDatagram %+v, UnmarshalDatagram %+v", d, *pd)
		}
		again, err := ParseDatagram(d.MarshalTo(nil))
		if err != nil {
			t.Fatalf("re-encoded datagram does not parse: %v", err)
		}
		want := d.Header
		want.TotalLen = IPv4HeaderLen + len(d.Payload)
		if again.Header != want || !bytes.Equal(again.Payload, d.Payload) {
			t.Fatalf("round trip %+v, want header %+v and the same payload", again, want)
		}
	})
}

func FuzzParseTCPSegment(f *testing.F) {
	for _, s := range []*TCPSegment{
		{SrcPort: 1000, DstPort: 80, Seq: 7, Flags: FlagSYN, Window: 65535},
		{SrcPort: 80, DstPort: 1000, Seq: 9, Ack: 8, Flags: FlagACK | FlagPSH, Window: 512, Payload: []byte("GET / HTTP/1.0\r\n\r\n")},
	} {
		addSweep(f, s.Marshal(fuzzSrc, fuzzDst), addrArgs)
	}

	f.Fuzz(func(t *testing.T, src, dst uint32, b []byte) {
		s4, d4 := IPFromUint32(src), IPFromUint32(dst)
		s, err := ParseTCPSegment(s4, d4, b)
		ps, perr := UnmarshalTCPSegment(s4, d4, b)
		if !sameError(err, perr) {
			t.Fatalf("ParseTCPSegment error %v, UnmarshalTCPSegment error %v", err, perr)
		}
		if err != nil {
			return
		}
		if !sameTCP(*ps, s) {
			t.Fatalf("ParseTCPSegment %+v, UnmarshalTCPSegment %+v", s, *ps)
		}
		again, err := ParseTCPSegment(s4, d4, s.MarshalTo(s4, d4, nil))
		if err != nil {
			t.Fatalf("re-encoded segment does not parse: %v", err)
		}
		if !sameTCP(again, s) {
			t.Fatalf("round trip %+v, want %+v", again, s)
		}
	})
}

func sameTCP(a, b TCPSegment) bool {
	return a.SrcPort == b.SrcPort && a.DstPort == b.DstPort && a.Seq == b.Seq && a.Ack == b.Ack &&
		a.Flags == b.Flags && a.Window == b.Window && bytes.Equal(a.Payload, b.Payload)
}

func FuzzParseUDPDatagram(f *testing.F) {
	u := &UDPDatagram{SrcPort: 5353, DstPort: 9, Payload: []byte("flood payload")}
	addSweep(f, u.Marshal(fuzzSrc, fuzzDst), addrArgs)
	noSum := u.Marshal(fuzzSrc, fuzzDst)
	noSum[6], noSum[7] = 0, 0 // checksum omitted, as RFC 768 allows
	f.Add(fuzzSrc.Uint32(), fuzzDst.Uint32(), noSum)

	f.Fuzz(func(t *testing.T, src, dst uint32, b []byte) {
		s4, d4 := IPFromUint32(src), IPFromUint32(dst)
		u, err := ParseUDPDatagram(s4, d4, b)
		pu, perr := UnmarshalUDPDatagram(s4, d4, b)
		if !sameError(err, perr) {
			t.Fatalf("ParseUDPDatagram error %v, UnmarshalUDPDatagram error %v", err, perr)
		}
		if err != nil {
			return
		}
		if !sameUDP(*pu, u) {
			t.Fatalf("ParseUDPDatagram %+v, UnmarshalUDPDatagram %+v", u, *pu)
		}
		again, err := ParseUDPDatagram(s4, d4, u.MarshalTo(s4, d4, nil))
		if err != nil {
			t.Fatalf("re-encoded datagram does not parse: %v", err)
		}
		if !sameUDP(again, u) {
			t.Fatalf("round trip %+v, want %+v", again, u)
		}
	})
}

func sameUDP(a, b UDPDatagram) bool {
	return a.SrcPort == b.SrcPort && a.DstPort == b.DstPort && bytes.Equal(a.Payload, b.Payload)
}

func FuzzParseICMPMessage(f *testing.F) {
	for _, m := range []*ICMPMessage{
		{Type: ICMPEchoRequest, ID: 0x4242, Seq: 3, Payload: []byte("ping")},
		{Type: ICMPDestUnreach, Code: ICMPCodePortUnreach},
	} {
		addSweep(f, m.Marshal(), func(b []byte) []any { return []any{b} })
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := ParseICMPMessage(b)
		pm, perr := UnmarshalICMPMessage(b)
		if !sameError(err, perr) {
			t.Fatalf("ParseICMPMessage error %v, UnmarshalICMPMessage error %v", err, perr)
		}
		if err != nil {
			return
		}
		if !sameICMP(*pm, m) {
			t.Fatalf("ParseICMPMessage %+v, UnmarshalICMPMessage %+v", m, *pm)
		}
		again, err := ParseICMPMessage(m.MarshalTo(nil))
		if err != nil {
			t.Fatalf("re-encoded message does not parse: %v", err)
		}
		if !sameICMP(again, m) {
			t.Fatalf("round trip %+v, want %+v", again, m)
		}
	})
}

func sameICMP(a, b ICMPMessage) bool {
	return a.Type == b.Type && a.Code == b.Code && a.ID == b.ID && a.Seq == b.Seq && bytes.Equal(a.Payload, b.Payload)
}
