package packet

import "testing"

func TestFramePoolSizeClasses(t *testing.T) {
	var p FramePool
	for _, tc := range []struct {
		n, wantCap int
		pooled     bool
	}{
		{0, smallFrameCap, true},
		{46, smallFrameCap, true},
		{smallFrameCap + 1, largeFrameCap, true},
		{MaxPayload, largeFrameCap, true},
		{MaxPayload + 1, MaxPayload + 1, false},
	} {
		f := p.Get(tc.n)
		if len(f.Payload) != 0 || cap(f.Payload) != tc.wantCap || (f.pool != nil) != tc.pooled {
			t.Errorf("Get(%d): len %d cap %d pooled %v, want 0, %d, %v",
				tc.n, len(f.Payload), cap(f.Payload), (f.pool != nil), tc.wantCap, tc.pooled)
		}
		f.Release()
	}
	if p.Outstanding() != 0 {
		t.Errorf("outstanding %d after releasing every frame", p.Outstanding())
	}
}

func TestFrameRetainRelease(t *testing.T) {
	var p FramePool
	f := p.Get(40)
	f.Retain()
	f.Release()
	if p.Outstanding() != 1 || len(p.small)+len(p.large) != 0 {
		t.Fatalf("after one of two releases: outstanding %d idle %d, want 1 and 0", p.Outstanding(), len(p.small)+len(p.large))
	}
	f.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("after the last release: outstanding %d, want 0", p.Outstanding())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("releasing a released frame did not panic")
			}
		}()
		f.Release()
	}()
}

func TestUnpooledFramesIgnoreOwnership(t *testing.T) {
	var p FramePool
	f := p.Get(40)
	f.Payload = append(f.Payload, 1, 2, 3)
	for _, u := range []*Frame{{Payload: []byte{1}}, f.Clone()} {
		u.Retain()
		u.Release()
		u.Release()
		u.Release()
		if u.pool != nil {
			t.Error("literal or cloned frame reports pooled")
		}
	}
	f.Release()
	if p.Outstanding() != 0 {
		t.Errorf("outstanding %d: the clone's releases reached the pool", p.Outstanding())
	}
}

func TestFramePoolBoundsFreeLists(t *testing.T) {
	var p FramePool
	var held []*Frame
	for range 3 * smallPoolDepth {
		held = append(held, p.Get(46), p.Get(MaxPayload))
	}
	for _, f := range held {
		f.Release()
	}
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding %d after releasing every frame", p.Outstanding())
	}
	if want := smallPoolDepth + largePoolDepth; !framePoison && len(p.small)+len(p.large) != want {
		t.Fatalf("idle frames %d, want the bound %d", len(p.small)+len(p.large), want)
	}
}
