package packet

import "errors"

// Frame ownership.
//
// A frame taken from a FramePool is reference counted, so its buffer
// can go back to the pool once the last holder is done with it:
//
//   - Get hands the caller one reference.
//   - A holder that passes the frame on to something that keeps it
//     (a link send, a scheduled event) passes its reference along.
//   - A callee that is merely lent the frame for the duration of a call
//     (a link's receive handler, a NIC's delivery to its host) may read
//     it but must not keep it, or any slice of its payload, past the
//     call. To keep it, it takes its own reference with Retain.
//   - Every reference ends in exactly one Release.
//
// Frames built any other way (literals, Clone) are unpooled: Retain and
// Release are no-ops on them, so code that follows the rules works on
// both kinds.

// Size classes of the pooled payload buffers. A minimum-size frame
// (46 payload bytes) never holds a full-size buffer, and a full-size
// frame never grows one.
const (
	smallFrameCap = 64
	largeFrameCap = MaxPayload

	// The depths bound each class's free list: frames released while
	// the list is full are left to the garbage collector, so an idle
	// pool holds at most about 8 KB of small and 13 KB of large frames
	// whatever the burst was. A steady flow keeps its frames in flight
	// and only needs the list to absorb the jitter between releases
	// and sends, a few frames.
	smallPoolDepth = 64
	largePoolDepth = 8
)

// Ownership violations panic with these.
var (
	errRetainReleased = errors.New("packet: Retain of a released frame")
	errOverRelease    = errors.New("packet: frame released more often than it was retained")
)

// FramePool is a LIFO free list of frames in two size classes. The zero
// value is ready to use. A pool belongs to one simulation and, like the
// rest of it, is used from a single goroutine.
type FramePool struct {
	small, large []*Frame
	outstanding  int
}

// Get returns a frame holding one reference, with an empty Payload of
// capacity at least n. A request larger than the largest size class
// gets an unpooled frame.
//
//barbican:noalloc
func (p *FramePool) Get(n int) *Frame {
	free, size := &p.small, smallFrameCap
	switch {
	case n <= smallFrameCap:
	case n <= largeFrameCap:
		free, size = &p.large, largeFrameCap
	default:
		return &Frame{Payload: make([]byte, 0, n)} //barbican:allow alloc -- oversize frames bypass the pool
	}
	p.outstanding++
	if k := len(*free); k > 0 {
		f := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		*f = Frame{Payload: f.Payload[:0], refs: 1, pool: p}
		return f
	}
	return &Frame{Payload: make([]byte, 0, size), refs: 1, pool: p} //barbican:allow alloc -- cold refill; steady state recycles
}

// Outstanding returns the number of frames taken from the pool and not
// yet released for the last time.
func (p *FramePool) Outstanding() int { return p.outstanding }

// put takes back a frame whose last reference was released.
func (p *FramePool) put(f *Frame) {
	p.outstanding--
	if framePoison {
		poisonFrame(f)
		return
	}
	var free *[]*Frame
	var depth int
	switch cap(f.Payload) {
	case smallFrameCap:
		free, depth = &p.small, smallPoolDepth
	case largeFrameCap:
		free, depth = &p.large, largePoolDepth
	default:
		return // the buffer was swapped or regrown; not a class buffer
	}
	if len(*free) < depth {
		*free = append(*free, f)
	}
}

// Retain takes one more reference to a pooled frame, for a holder that
// keeps the frame past the call that lent it. It is a no-op on an
// unpooled frame.
func (f *Frame) Retain() {
	if f.pool == nil {
		return
	}
	if f.refs <= 0 {
		panic(errRetainReleased)
	}
	f.refs++
}

// Release drops one reference to a pooled frame; the last one returns
// the frame to its pool, after which neither the frame nor its payload
// may be touched. It is a no-op on an unpooled frame.
func (f *Frame) Release() {
	p := f.pool
	if p == nil {
		return
	}
	f.refs--
	if f.refs > 0 {
		return
	}
	if f.refs < 0 {
		panic(errOverRelease)
	}
	p.put(f)
}
