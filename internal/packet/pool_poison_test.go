//go:build framepoison

package packet

import "testing"

func TestFramePoisonRetiresReleasedFrames(t *testing.T) {
	var p FramePool
	a := p.Get(46)
	a.Payload = append(a.Payload, 1, 2, 3)
	a.Release()
	for _, c := range a.Payload {
		if c != poisonByte {
			t.Fatalf("released payload not scribbled: %x", a.Payload)
		}
	}
	if b := p.Get(46); b == a {
		t.Fatal("a poisoned frame was handed out again")
	}
	defer func() {
		if recover() == nil {
			t.Error("Retain of a released frame did not panic")
		}
	}()
	a.Retain()
}
