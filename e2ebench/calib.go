package main

import (
	"container/heap"
	"time"
)

// The gated rates and set-up times are in reference seconds. Host
// speed on a shared machine drifts by tens of percent over minutes, as
// neighbours load the physical cores and caches, and neither the wall
// clock nor the CPU clock sees why. Each episode therefore also times
// refWork, a fixed workload shaped like the simulator's, and a
// reference second is the CPU time refLoopsPerSecond runs of it take
// at that moment. refWork calls nothing in the repository, so a change
// to the program cannot move it.
const refLoopsPerSecond = 20

// refSteps sizes refWork to about 50 ms on a 2 GHz Xeon core.
const refSteps = 100_000

type refItem struct {
	at, seq uint64
	buf     []byte
}

// refQueue is a min-heap of refItems by (at, seq).
type refQueue []*refItem

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *refQueue) Push(x any) {
	if it, ok := x.(*refItem); ok {
		*q = append(*q, it)
	}
}

func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refSink keeps refWork's result live.
var refSink int

// refWork is a frozen miniature event loop: heap-ordered events, each
// popped one allocating and copying a buffer of a frame's size and
// updating a map.
func refWork() {
	q := &refQueue{}
	m := make(map[uint32]uint32, 1024)
	rng := uint64(42)
	var seq uint64
	for i := 0; i < 256; i++ {
		seq++
		heap.Push(q, &refItem{at: uint64(i), seq: seq, buf: make([]byte, 64)})
	}
	for i := 0; i < refSteps; i++ {
		it, _ := heap.Pop(q).(*refItem)
		rng = rng*6364136223846793005 + 1442695040888963407
		n := 64 + int(rng>>53)%1454
		b := make([]byte, n)
		copy(b, it.buf)
		m[uint32(rng>>40)&1023] += uint32(n)
		seq++
		heap.Push(q, &refItem{at: it.at + rng>>52, seq: seq, buf: b})
	}
	refSink += len(m) + q.Len()
}

// refSecond times refWork and returns the length of a reference second
// in CPU time now.
func refSecond() time.Duration {
	s := now()
	refWork()
	return refLoopsPerSecond * s.to(now()).cpu
}

// inRef converts a CPU time to reference seconds.
func inRef(cpu, refSec time.Duration) float64 { return cpu.Seconds() / refSec.Seconds() }
