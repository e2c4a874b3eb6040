package telemetry

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecodeReport feeds arbitrary bytes to the BTL1 decoder, both raw
// and reframed as the body of a well-formed image (magic, length and a
// valid checksum), since the checksum otherwise shields the body parser
// from nearly every mutation. On any input the decoder must not panic
// and must keep its contract:
//
//   - (nil, 0, nil) only for a plausible prefix that needs more bytes;
//   - a report consumes a whole image from the front of the buffer;
//   - a decoded report re-encodes to an image that decodes to the same
//     report.
//
// The seed corpus is the truncation and bit-flip sweeps of
// proto_test.go. Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeReport$' -fuzztime 30s ./internal/telemetry
func FuzzDecodeReport(f *testing.F) {
	wire := AppendReport(nil, sampleReport())
	f.Add(wire)
	for n := 0; n < len(wire); n++ {
		f.Add(wire[:n])
	}
	for i := range wire {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), wire...)
			mut[i] ^= flip
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecodeReport(t, b)
		if len(b) <= maxReportSize {
			framed := append([]byte(reportMagic), 0, 0)
			binary.BigEndian.PutUint16(framed[4:], uint16(len(b)))
			framed = append(framed, b...)
			framed = binary.BigEndian.AppendUint64(framed, checksum(b))
			checkDecodeReport(t, framed)
		}
	})
}

func checkDecodeReport(t *testing.T, b []byte) {
	t.Helper()
	r, n, err := DecodeReport(b)
	switch {
	case err != nil:
		if r != nil || n != 0 {
			t.Fatalf("error %v with report %v and %d bytes consumed", err, r, n)
		}
		return
	case r == nil:
		if n != 0 {
			t.Fatalf("need-more result consumed %d bytes", n)
		}
		if len(b) >= headerLen && len(b) >= headerLen+int(binary.BigEndian.Uint16(b[4:]))+checksumLen {
			t.Fatalf("need-more result on a %d-byte buffer holding a whole image", len(b))
		}
		return
	}
	if n < headerLen+checksumLen || n > len(b) {
		t.Fatalf("report consumed %d of %d bytes", n, len(b))
	}
	again, m, err := DecodeReport(AppendReport(nil, r))
	if err != nil || again == nil {
		t.Fatalf("re-encoded report does not decode: %v", err)
	}
	if m != len(AppendReport(nil, r)) || !reflect.DeepEqual(again, r) {
		t.Fatalf("round trip %+v, want %+v", again, r)
	}
}
