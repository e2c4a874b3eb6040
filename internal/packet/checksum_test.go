package packet

import (
	"math/rand"
	"testing"
)

// refSumWords is the original two-bytes-at-a-time RFC 1071 sum, kept
// as the reference the word-at-a-time sumWords must agree with once
// both are folded.
func refSumWords(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// refFinish folds a reference sum to 16 bits and complements it.
func refFinish(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

func refChecksum(data []byte) uint16 { return refFinish(refSumWords(0, data)) }

func refTransportChecksum(src, dst IP, proto Protocol, segment []byte) uint16 {
	sum := refSumWords(0, src[:])
	sum = refSumWords(sum, dst[:])
	sum += uint32(proto) + uint32(len(segment))
	return refFinish(refSumWords(sum, segment))
}

// TestChecksumMatchesReference compares Checksum and TransportChecksum
// with the byte-pair reference at every length a datagram can carry,
// 0 through 65,535, over all-zero, all-0xFF and random data. All-0xFF
// is the carry-heavy extreme, all-zero the one input whose sum is zero.
//
// The reference sum of each prefix is extended from the previous even
// prefix: the byte-pair loop over data[:n] is the loop over data[:2k]
// continued over data[2k:n], so the sweep stays linear in its length.
func TestChecksumMatchesReference(t *testing.T) {
	const maxLen = 65535
	random := make([]byte, maxLen)
	rand.New(rand.NewSource(1)).Read(random)
	ones := make([]byte, maxLen)
	for i := range ones {
		ones[i] = 0xff
	}
	src, dst := MustIP("10.0.0.1"), MustIP("192.168.255.254")
	pseudo := refSumWords(refSumWords(0, src[:]), dst[:]) + uint32(ProtoUDP)
	for _, tc := range []struct {
		name string
		data []byte
	}{{"zero", make([]byte, maxLen)}, {"ones", ones}, {"random", random}} {
		t.Run(tc.name, func(t *testing.T) {
			var even uint32 // refSumWords(0, data[:n&^1])
			for n := 0; n <= maxLen; n++ {
				if n >= 2 && n%2 == 0 {
					even = refSumWords(even, tc.data[n-2:n])
				}
				b := tc.data[:n]
				ref := refSumWords(even, tc.data[n&^1:n])
				if got, want := Checksum(b), refFinish(ref); got != want {
					t.Fatalf("Checksum(len %d) = %#04x, want %#04x", n, got, want)
				}
				if got, want := TransportChecksum(src, dst, ProtoUDP, b), refFinish(pseudo+uint32(n)+ref); got != want {
					t.Fatalf("TransportChecksum(len %d) = %#04x, want %#04x", n, got, want)
				}
			}
			// Spot-check the incremental reference against whole-prefix
			// calls, including the longest and an odd length.
			for _, n := range []int{0, 1, 1499, 1500, maxLen - 1, maxLen} {
				b := tc.data[:n]
				if got, want := TransportChecksum(src, dst, ProtoUDP, b), refTransportChecksum(src, dst, ProtoUDP, b); got != want {
					t.Fatalf("TransportChecksum(len %d) = %#04x, reference %#04x", n, got, want)
				}
			}
		})
	}
}

// TestChecksumCarriedInSums covers the sums carried into a segment
// sum: pseudo-headers with extreme addresses and a spread of protocol
// bytes, segments patched with their own checksum (whose folded total
// is all-ones, so they must verify to zero), and raw carried-in sums
// over carry-heavy all-0xFF data.
func TestChecksumCarriedInSums(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	addrs := []IP{{0, 0, 0, 0}, {255, 255, 255, 255}, {10, 0, 0, 1}, {0, 0, 0, 1}, {128, 0, 0, 0}}
	for _, src := range addrs {
		for _, dst := range addrs {
			for proto := 0; proto < 256; proto += 17 {
				n := rng.Intn(2000)
				seg := make([]byte, n)
				rng.Read(seg)
				p := Protocol(proto)
				if got, want := TransportChecksum(src, dst, p, seg), refTransportChecksum(src, dst, p, seg); got != want {
					t.Fatalf("TransportChecksum(%v, %v, %d, len %d) = %#04x, want %#04x", src, dst, proto, n, got, want)
				}
				// Write the checksum into the segment's first word: the
				// sum over the patched segment is then all-ones, and
				// must verify to zero on both sides.
				if n >= 2 {
					seg[0], seg[1] = 0, 0
					c := TransportChecksum(src, dst, p, seg)
					seg[0], seg[1] = byte(c>>8), byte(c)
					if got, want := TransportChecksum(src, dst, p, seg), refTransportChecksum(src, dst, p, seg); got != want || got != 0 {
						t.Fatalf("verify sum over patched segment = %#04x, reference %#04x, want 0", got, want)
					}
				}
			}
		}
	}
	for _, sum := range []uint32{0, 1, 0xffff, 0x10000, 0x1fffe, 0xfffff} {
		for _, n := range []int{0, 1, 2, 7, 8, 63, 64, 65, 1499} {
			data := make([]byte, n)
			for i := range data {
				data[i] = 0xff
			}
			if got, want := ^uint16(sumWords(sum, data)), refFinish(refSumWords(sum, data)); got != want {
				t.Fatalf("sum %#x + %d bytes of 0xff = %#04x, want %#04x", sum, n, got, want)
			}
		}
	}
}

// FuzzChecksum checks Checksum and TransportChecksum against the
// byte-pair reference on arbitrary data and pseudo-header fields. Run
// it with
//
//	go test -run '^$' -fuzz '^FuzzChecksum$' -fuzztime 30s ./internal/packet
func FuzzChecksum(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint8(0), []byte{})
	f.Add(fuzzSrc.Uint32(), fuzzDst.Uint32(), uint8(ProtoUDP), []byte{0xab})
	f.Add(^uint32(0), ^uint32(0), uint8(0xff), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	u := &UDPDatagram{SrcPort: 5353, DstPort: 9, Payload: []byte("flood payload")}
	addSweep(f, u.Marshal(fuzzSrc, fuzzDst), func(b []byte) []any {
		return []any{fuzzSrc.Uint32(), fuzzDst.Uint32(), uint8(ProtoUDP), b}
	})

	f.Fuzz(func(t *testing.T, src, dst uint32, proto uint8, b []byte) {
		if len(b) > 65535 {
			b = b[:65535]
		}
		if got, want := Checksum(b), refChecksum(b); got != want {
			t.Fatalf("Checksum = %#04x, want %#04x", got, want)
		}
		s4, d4 := IPFromUint32(src), IPFromUint32(dst)
		p := Protocol(proto)
		if got, want := TransportChecksum(s4, d4, p, b), refTransportChecksum(s4, d4, p, b); got != want {
			t.Fatalf("TransportChecksum = %#04x, want %#04x", got, want)
		}
	})
}
