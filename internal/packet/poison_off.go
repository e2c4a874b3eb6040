//go:build !framepoison

package packet

// framePoison is false in normal builds: released pooled frames are
// recycled. Build with -tags framepoison to scribble and retire them
// instead (see poison_on.go).
const framePoison = false

func poisonFrame(*Frame) {}
