//go:build !framepoison

package packet

import "testing"

func TestFramePoolReusesLIFO(t *testing.T) {
	var p FramePool
	a := p.Get(46)
	a.Dst, a.TraceID = MAC{1}, 7
	a.Payload = append(a.Payload, 0xaa)
	a.Release()
	b := p.Get(20)
	if b != a {
		t.Fatal("Get after Release did not return the released frame")
	}
	if len(b.Payload) != 0 || b.Dst != (MAC{}) || b.TraceID != 0 || b.refs != 1 {
		t.Fatalf("recycled frame not reset: %+v", b)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Get(46).Release() }); allocs != 0 {
		t.Fatalf("Get/Release cycle allocates %.1f times, want 0", allocs)
	}
}
