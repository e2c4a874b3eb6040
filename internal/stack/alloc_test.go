//go:build !framepoison

package stack

import (
	"testing"
	"time"
)

// This file holds the allocation-count checks. A framepoison build
// retires every released frame instead of recycling it, so they only
// hold in normal builds.

// TestSteadyWriteAckAllocatesNothing checks the bulk sender's contract:
// once a streaming connection's buffers and the cards' frame pools have
// warmed up, each Write of a chunk and the transfer and acknowledgement
// of as many bytes allocate nothing anywhere in the simulator — send
// buffer, segments, frames, switch, receive path, ACK processing and
// the RTO timer. The sender keeps 128 KB queued, twice the window, as
// iperf does: every ACK releases the next segments, so the window stays
// full and the frames in flight stay level. (A sender that lets its
// backlog drain and then writes a burst of more full frames than the
// pool's free list holds re-allocates the excess; see packet.FramePool.)
func TestSteadyWriteAckAllocatesNothing(t *testing.T) {
	n, a, b := twoHosts(t)
	if _, err := b.ListenTCP(5001, func(c *Conn) {
		c.OnData = func([]byte) {}
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 5001)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.kernel.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const backlog = 128 << 10
	chunk := make([]byte, 16<<10)
	cycle := func() {
		if err := c.Write(chunk); err != nil {
			t.Fatal(err)
		}
		for c.Buffered() > backlog && n.kernel.Step() {
		}
	}
	for range 40 {
		cycle()
	}
	acked := c.Stats().BytesAcked
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady Write/ACK cycle allocates %.1f times; want 0", allocs)
	}
	if got := c.Stats().BytesAcked - acked; got < 100*uint64(len(chunk)) {
		t.Fatalf("acked %d bytes over the measured cycles, want at least %d", got, 100*len(chunk))
	}
}
