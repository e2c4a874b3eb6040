package packet

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the RFC 1071 internet checksum over data.
func Checksum(data []byte) uint16 {
	return ^uint16(sumWords(0, data))
}

// sumWords adds the 16-bit big-endian words of data to sum in one's
// complement arithmetic and returns the total folded to 16 bits. An odd
// trailing byte is padded with zero, per RFC 1071.
//
// The words are read eight bytes at a time. A 64-bit big-endian load is
// w0·2⁴⁸ + w1·2³² + w2·2¹⁶ + w3, and 2¹⁶ ≡ 1 modulo 2¹⁶−1, so the load is
// congruent to w0+w1+w2+w3 modulo 2¹⁶−1. The loads are summed with
// end-around carry, which is addition modulo 2⁶⁴−1, a multiple of 2¹⁶−1;
// folding the 64-bit total to 16 bits keeps the residue. End-around
// carry never turns a nonzero total into zero, so the result is zero
// exactly when every word and sum are zero. A 16-bit fold is therefore
// the same value the plain two-bytes-at-a-time sum folds to, on every
// input. See DESIGN.md §8.
//
//barbican:noalloc
func sumWords(sum uint32, data []byte) uint32 {
	acc, carry := uint64(sum), uint64(0)
	// Eight loads per step: the carry flows from add to add inside a
	// step and is saved and restored only between steps.
	for len(data) >= 64 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[0:8]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[8:16]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[16:24]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[24:32]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[32:40]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[40:48]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[48:56]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[56:64]), carry)
		data = data[64:]
	}
	for len(data) >= 8 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	// The tail is at most 7 bytes: pad it on the right to a 64-bit
	// big-endian word, which pads an odd last byte with zero.
	var tail uint64
	if len(data) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(data)) << 32
		data = data[4:]
	}
	if len(data) >= 2 {
		tail |= uint64(binary.BigEndian.Uint16(data)) << 16
		data = data[2:]
	}
	if len(data) == 1 {
		tail |= uint64(data[0]) << 8
	}
	acc, carry = bits.Add64(acc, tail, carry)
	// The tail's low byte is zero, so a carry out of the last add leaves
	// acc at most 2⁶⁴−256 and taking it back in cannot wrap.
	acc += carry
	// Fold 64 → 32 → 16 bits, end-around at each step.
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	return uint32(acc)
}

// pseudoHeaderSum accumulates the IPv4 pseudo-header used by TCP and UDP
// checksums: source, destination, zero+protocol, and the transport length.
func pseudoHeaderSum(src, dst IP, proto Protocol, length int) uint32 {
	var sum uint32
	sum = sumWords(sum, src[:])
	sum = sumWords(sum, dst[:])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// TransportChecksum computes the TCP/UDP checksum of segment (header plus
// payload) with the IPv4 pseudo-header for src/dst/proto.
func TransportChecksum(src, dst IP, proto Protocol, segment []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, proto, len(segment))
	return ^uint16(sumWords(sum, segment))
}
