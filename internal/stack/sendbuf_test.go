package stack

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"barbican/internal/faults"
	"barbican/internal/nic"
	"barbican/internal/packet"
)

// TestSendBufferIntegrityUnderLoss pushes a non-repeating byte stream
// through Conn.Write in uneven chunks while a seeded fault plan drops
// segments and ACKs in both directions, so the send buffer is trimmed
// by partial ACKs, compacted by later Writes, and read back by fast
// retransmits and RTO retransmits from every offset. Bulk senders write
// zero-filled chunks, so a buffer bug that moves bytes around would not
// show in any throughput figure; here the receiver must get exactly the
// stream that was written.
func TestSendBufferIntegrityUnderLoss(t *testing.T) {
	n, a, b := twoHosts(t)
	plan, err := faults.ParsePlan("loss=0.03")
	if err != nil {
		t.Fatal(err)
	}
	faults.Attach(a.NIC().Endpoint(), plan, 11)

	const total = 1 << 20
	want := make([]byte, total)
	rand.New(rand.NewSource(3)).Read(want)

	var got bytes.Buffer
	if _, err := b.ListenTCP(5001, func(c *Conn) {
		c.OnData = func(p []byte) { got.Write(p) }
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 5001)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk sizes cycle through odd lengths so neither the compaction
	// offsets nor the segment boundaries line up with the chunks.
	sizes := []int{7919, 1, 65521, 1460, 30011, 3}
	sent, next := 0, 0
	fill := func() {
		for c.Buffered() < 96<<10 && sent < total {
			m := min(sizes[next%len(sizes)], total-sent)
			next++
			if err := c.Write(want[sent : sent+m]); err != nil {
				t.Fatal(err)
			}
			sent += m
		}
	}
	c.OnConnect = fill
	c.OnAcked = func(int) { fill() }

	if err := n.kernel.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got.Len() != total {
		t.Fatalf("received %d of %d bytes", got.Len(), total)
	}
	if i := firstDiff(got.Bytes(), want); i >= 0 {
		t.Fatalf("received stream differs from the written one at byte %d", i)
	}
	st := c.Stats()
	if st.FastRetrans == 0 || st.RTOEvents == 0 {
		t.Fatalf("loss plan exercised fast retransmit %d times and RTO %d times; want both", st.FastRetrans, st.RTOEvents)
	}
	t.Logf("fast retransmits %d, RTOs %d, retransmitted segments %d", st.FastRetrans, st.RTOEvents, st.Retransmits)
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// BenchmarkHostReceive delivers one frame per iteration through
// Host.receive, the NIC's delivery callback. tcp-data is an in-order
// data segment for an established connection, whose ACK then crosses
// the card, the switch and the peer; udp is a datagram for a bound
// socket. Frames are built in reused buffers, so every allocation would
// be the receive path's own; both must stay at 0 allocs/op.
func BenchmarkHostReceive(b *testing.B) {
	b.Run("tcp-data", func(b *testing.B) {
		n, a, srv := twoHosts(b)
		var conn *Conn
		if _, err := srv.ListenTCP(5001, func(c *Conn) {
			conn = c
			c.OnData = func([]byte) {}
		}); err != nil {
			b.Fatal(err)
		}
		cl, err := a.DialTCP(srv.IP(), 5001)
		if err != nil {
			b.Fatal(err)
		}
		if err := n.kernel.RunUntil(10 * time.Millisecond); err != nil || conn == nil {
			b.Fatalf("handshake: %v", err)
		}
		payload := make([]byte, 1024)
		f := &packet.Frame{Dst: srv.NIC().MAC(), Src: a.NIC().MAC(), Type: packet.EtherTypeIPv4}
		var tx []byte
		deliver := func() {
			seg := packet.TCPSegment{
				SrcPort: cl.LocalPort(), DstPort: 5001,
				Seq: conn.rcvNxt, Ack: conn.sndNxt,
				Flags: packet.FlagACK | packet.FlagPSH, Window: 65535, Payload: payload,
			}
			tx = seg.MarshalTo(a.IP(), srv.IP(), tx[:0])
			d := packet.NewDatagram(a.IP(), srv.IP(), packet.ProtoTCP, 1, tx)
			f.Payload = d.MarshalTo(f.Payload[:0])
			srv.receive(f)
			for n.kernel.Step() {
			}
		}
		deliver()
		start := conn.Stats().BytesReceived

		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			deliver()
		}
		b.StopTimer()
		if got := conn.Stats().BytesReceived - start; got != uint64(b.N*len(payload)) {
			b.Fatalf("received %d bytes, want %d", got, b.N*len(payload))
		}
	})
	b.Run("udp", func(b *testing.B) {
		n := newNet(b)
		a := n.addHost(b, "a", "10.0.0.1", nic.Standard(), nil)
		srv := n.addHost(b, "b", "10.0.0.2", nic.Standard(), nil)
		sock, err := srv.BindUDP(5001)
		if err != nil {
			b.Fatal(err)
		}
		u := packet.UDPDatagram{SrcPort: 1000, DstPort: 5001, Payload: make([]byte, 64)}
		d := packet.NewDatagram(a.IP(), srv.IP(), packet.ProtoUDP, 1, u.Marshal(a.IP(), srv.IP()))
		f := &packet.Frame{Dst: srv.NIC().MAC(), Src: a.NIC().MAC(), Type: packet.EtherTypeIPv4, Payload: d.Marshal()}

		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			srv.receive(f)
		}
		b.StopTimer()
		if got, _ := sock.Received(); got != uint64(b.N) {
			b.Fatalf("socket received %d datagrams, want %d", got, b.N)
		}
	})
}
