//go:build framepoison

package packet

// framePoison makes frame-lifetime bugs loud. A pooled frame released
// for the last time has its header and whole payload buffer scribbled
// and is never handed out again, so a holder that kept it without a
// reference reads garbage (and fails checksums) instead of another
// frame's bytes. Its count stays at zero, so a further Release or
// Retain panics.
const framePoison = true

// poisonByte fills released payload buffers.
const poisonByte = 0xdb

func poisonFrame(f *Frame) {
	b := f.Payload[:cap(f.Payload)]
	for i := range b {
		b[i] = poisonByte
	}
	f.Dst, f.Src = MAC{}, MAC{}
	f.Type = 0
	f.TraceID = 0
}
