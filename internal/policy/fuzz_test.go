package policy

import (
	"encoding/binary"
	"reflect"
	"testing"

	"barbican/internal/packet"
	"barbican/internal/vpg"
)

// fuzzPSK signs the reframed bodies FuzzDecodePush builds.
var fuzzPSK = DeriveKey("fuzz")

// FuzzDecodePush feeds arbitrary bytes to the push decoder, both raw
// and reframed as the body of a correctly signed BPL2 message, since
// the HMAC otherwise keeps every mutation away from parseBody. The
// decoder must not panic; it returns (nil, 0, nil) only for a plausible
// prefix, consumes a whole message on success, and a decoded message
// re-encodes to one that decodes to the same message. The seeds are
// the sweeps of a signed push and of its bare body. Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodePush$' -fuzztime 30s ./internal/policy
func FuzzDecodePush(f *testing.F) {
	msg := &pushMessage{
		Version: 7,
		Name:    "target",
		Text:    "allow in proto tcp from any to 10.0.0.2/32 port 80\ndefault deny\n",
		Groups: []groupDef{{
			Name:    "psq",
			Key:     vpg.Key{1, 2, 3},
			Members: []packet.IP{packet.MustIP("10.0.0.1"), packet.MustIP("10.0.0.2")},
		}},
	}
	wire, err := msg.encode(fuzzPSK)
	if err != nil {
		f.Fatal(err)
	}
	body, err := msg.body()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{wire, body} {
		for _, b := range sweep(seed) {
			f.Add(b)
		}
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecodePush(t, b)
		framed := append([]byte(protoMagic), 0, 0, 0, 0)
		binary.BigEndian.PutUint32(framed[4:], uint32(len(b)+macLen))
		framed = append(append(framed, b...), sign(fuzzPSK, b)...)
		checkDecodePush(t, framed)
	})
}

func checkDecodePush(t *testing.T, b []byte) {
	t.Helper()
	m, n, err := decodePush(fuzzPSK, b)
	switch {
	case err != nil:
		if m != nil || n != 0 {
			t.Fatalf("error %v with message %v and %d bytes consumed", err, m, n)
		}
		return
	case m == nil:
		if n != 0 {
			t.Fatalf("need-more result consumed %d bytes", n)
		}
		if len(b) >= headerLen && len(b) >= headerLen+int(binary.BigEndian.Uint32(b[4:8])) {
			t.Fatalf("need-more result on a %d-byte buffer holding a whole message", len(b))
		}
		return
	}
	if n < headerLen+macLen || n > len(b) {
		t.Fatalf("message consumed %d of %d bytes", n, len(b))
	}
	wire, err := m.encode(fuzzPSK)
	if err != nil {
		t.Fatalf("decoded message does not re-encode: %v", err)
	}
	again, k, err := decodePush(fuzzPSK, wire)
	if err != nil || k != len(wire) || !reflect.DeepEqual(again, m) {
		t.Fatalf("round trip %+v (%d bytes, %v), want %+v", again, k, err, m)
	}
}

// FuzzParse feeds arbitrary text to the policy-language parser. It must
// not panic, and any rule set it accepts must format to text that
// parses back to a rule set with the same formatting. The seeds are
// the policies of parse_test.go, their prefixes and byte flips. Run it
// with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 30s ./internal/policy
func FuzzParse(f *testing.F) {
	for _, text := range []string{
		"# protect the web server\nallow in proto tcp from any to 10.0.0.2/32 port 80 # web\n" +
			"deny in proto udp from 10.0.0.0/8 to any\nallow in vpg psq from 10.0.0.0/24 to 10.0.0.2/32\n" +
			"allow both from any to any state established,related\ndefault deny\n",
		"allow out proto udp from any port 1024-65535 to any port 53\nallow in proto 47 from any to any\ndefault allow",
	} {
		for _, b := range sweep([]byte(text)) {
			f.Add(string(b))
		}
	}

	f.Fuzz(func(t *testing.T, text string) {
		rs, err := Parse(text)
		if err != nil {
			return
		}
		out := Format(rs)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("formatted rule set does not parse: %v\n%s", err, out)
		}
		if again := Format(back); again != out {
			t.Fatalf("format round trip changed the policy:\n%s\nbecame\n%s", out, again)
		}
	})
}

// sweep returns b, its prefixes and its single-byte flips by 0x01, 0x80
// and 0xff: the shape of the corruption sweeps in corruption_test.go.
func sweep(b []byte) [][]byte {
	out := [][]byte{b}
	for n := 0; n < len(b); n++ {
		out = append(out, b[:n])
	}
	for i := range b {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), b...)
			mut[i] ^= flip
			out = append(out, mut)
		}
	}
	return out
}
