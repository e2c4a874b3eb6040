package packet

import (
	"fmt"
	"testing"
)

func BenchmarkChecksum1500(b *testing.B) {
	data := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}

// BenchmarkChecksum covers the sizes the simulator sums most: the
// 20-byte IPv4 header on every frame, a minimum-size flood datagram,
// and an odd-length near-MTU segment that exercises the tail.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{20, 64, 1499} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Checksum(data)
			}
		})
	}
}

func BenchmarkTCPMarshal(b *testing.B) {
	src, dst := IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
	s := &TCPSegment{SrcPort: 1, DstPort: 2, Flags: FlagACK, Payload: make([]byte, 1448)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Marshal(src, dst)
	}
}

func BenchmarkTCPUnmarshal(b *testing.B) {
	src, dst := IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
	buf := (&TCPSegment{SrcPort: 1, DstPort: 2, Flags: FlagACK, Payload: make([]byte, 1448)}).Marshal(src, dst)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalTCPSegment(src, dst, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummarize(b *testing.B) {
	src, dst := IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
	seg := &TCPSegment{SrcPort: 4242, DstPort: 80, Flags: FlagSYN}
	d := NewDatagram(src, dst, ProtoTCP, 1, seg.Marshal(src, dst))
	f := &Frame{Type: EtherTypeIPv4, Payload: d.Marshal()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(f); err != nil {
			b.Fatal(err)
		}
	}
}
