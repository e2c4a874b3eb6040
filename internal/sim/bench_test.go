package sim

import (
	"math/rand"
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.After(time.Microsecond, func() {})
		k.Step()
	}
}

func BenchmarkEventChurn(b *testing.B) {
	// A self-rescheduling event chain, the simulator's hot pattern.
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	k.After(time.Microsecond, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueHold is the classic hold model at the simulator's
// realistic queue depth: 256 events stay pending (e2ebench's efw-flood
// peaks at 262), and each iteration pops the earliest and schedules a
// replacement a seeded pseudo-random increment later, so every
// iteration exercises a full sift-down and a sift-up.
func BenchmarkQueueHold(b *testing.B) {
	const depth = 256
	rng := rand.New(rand.NewSource(1))
	incs := make([]time.Duration, 1024)
	for i := range incs {
		incs[i] = time.Duration(1 + rng.Intn(2*depth))
	}
	k := NewKernel()
	n := 0
	var hold func(any)
	hold = func(any) {
		k.AfterCall(incs[n&(len(incs)-1)], hold, nil)
		n++
	}
	for i := 0; i < depth; i++ {
		k.AfterCall(incs[i], hold, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	if k.Len() != depth {
		b.Fatalf("queue depth %d, want %d", k.Len(), depth)
	}
}
