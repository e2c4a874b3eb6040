package trace_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"barbican/internal/trace"
)

// FuzzReadPCAP feeds arbitrary bytes to the pcap reader. It must not
// panic, and when it accepts a file the records it returns must account
// for every byte: the 24-byte file header, then per record a 16-byte
// header whose captured length is the frame that follows. The seeds are
// a valid file, its prefixes and its byte flips, the shape of the
// malformed-input cases in pcap_malformed_test.go. Run it with
//
//	go test -run '^$' -fuzz '^FuzzReadPCAP$' -fuzztime 30s ./internal/trace
func FuzzReadPCAP(f *testing.F) {
	valid := validPCAP(f)
	f.Add(valid)
	for n := 0; n < len(valid); n++ {
		f.Add(valid[:n])
	}
	for i := range valid {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), valid...)
			mut[i] ^= flip
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		frames, err := trace.ReadPCAP(bytes.NewReader(b))
		if err != nil {
			return
		}
		off := 24
		for i, fr := range frames {
			if off+16 > len(b) {
				t.Fatalf("record %d starts past the end of a %d-byte file", i, len(b))
			}
			n := int(binary.LittleEndian.Uint32(b[off+8 : off+12]))
			off += 16
			if n != len(fr) || off+n > len(b) || !bytes.Equal(fr, b[off:off+n]) {
				t.Fatalf("record %d: frame of %d bytes does not match its %d-byte captured length at offset %d", i, len(fr), n, off)
			}
			off += n
		}
		if off != len(b) {
			t.Fatalf("accepted file of %d bytes, records account for %d", len(b), off)
		}
	})
}
