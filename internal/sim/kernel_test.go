package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelRunsEventsInTimestampOrder(t *testing.T) {
	k := NewKernel()
	var got []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		d := d * time.Millisecond
		k.At(d, func() { got = append(got, d) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("executed %d events, want 5", len(got))
	}
	if k.Now() != 5*time.Millisecond {
		t.Errorf("Now() = %v, want 5ms", k.Now())
	}
}

func TestKernelTieBreaksBySchedulingOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order got %v", got)
		}
	}
}

func TestKernelAfterSchedulesRelative(t *testing.T) {
	k := NewKernel()
	var at time.Duration
	k.At(time.Second, func() {
		k.After(500*time.Millisecond, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 1500*time.Millisecond {
		t.Errorf("nested After fired at %v, want 1.5s", at)
	}
}

func TestKernelPastSchedulingClamps(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(time.Second, func() {
		k.At(0, func() { fired = true })
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("event scheduled in the past never fired")
	}
	if k.Now() != time.Second {
		t.Errorf("clock moved backwards: %v", k.Now())
	}
}

func TestEventCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(time.Second, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending")
	}
	if !e.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelOneOfManyAtSameInstant(t *testing.T) {
	k := NewKernel()
	var got []int
	var events []*Event
	for i := 0; i < 5; i++ {
		i := i
		events = append(events, k.At(time.Second, func() { got = append(got, i) }))
	}
	events[2].Cancel()
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(time.Duration(i)*time.Second, func() { count++ })
	}
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if count != 5 {
		t.Errorf("executed %d events, want 5", count)
	}
	if k.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", k.Now())
	}
	if err := k.RunFor(3 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 8 {
		t.Errorf("executed %d events, want 8", count)
	}
}

func TestRunUntilWithEmptyQueueAdvancesClock(t *testing.T) {
	k := NewKernel()
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if k.Now() != time.Minute {
		t.Errorf("Now() = %v, want 1m", k.Now())
	}
}

func TestHaltStopsRun(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		k.At(time.Duration(i)*time.Second, func() {
			count++
			if i == 3 {
				k.Halt()
			}
		})
	}
	if err := k.Run(); err != ErrHalted {
		t.Fatalf("Run = %v, want ErrHalted", err)
	}
	if count != 3 {
		t.Errorf("executed %d events before halt, want 3", count)
	}
}

func TestKernelDeterministicWithSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		k := NewKernel(WithSeed(seed))
		var vals []int64
		for i := 0; i < 5; i++ {
			k.After(time.Duration(i)*time.Second, func() {
				vals = append(vals, k.Rand().Int63())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different streams: %v vs %v", a, b)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestTickerFiresAtInterval(t *testing.T) {
	k := NewKernel()
	var times []time.Duration
	tk := k.NewTicker(100*time.Millisecond, func() {
		times = append(times, k.Now())
	})
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	tk.Stop()
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(times) != 10 {
		t.Fatalf("ticker fired %d times, want 10: %v", len(times), times)
	}
	for i, tm := range times {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if tm != want {
			t.Errorf("tick %d at %v, want %v", i, tm, want)
		}
	}
	if tk.Fires() != 10 {
		t.Errorf("Fires() = %d, want 10", tk.Fires())
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	k := NewKernel()
	var tk *Ticker
	count := 0
	tk = k.NewTicker(time.Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 3 {
		t.Errorf("ticker fired %d times after in-callback Stop, want 3", count)
	}
}

func TestTickerNonPositiveIntervalNeverFires(t *testing.T) {
	k := NewKernel()
	tk := k.NewTicker(0, func() { t.Error("ticker with zero interval fired") })
	if err := k.RunUntil(time.Hour); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	tk.Stop()
}

// Property: for any set of scheduling offsets, events execute in
// non-decreasing timestamp order and the executed count matches.
func TestEventOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		k := NewKernel()
		var fired []time.Duration
		for _, off := range offsets {
			d := time.Duration(off) * time.Microsecond
			k.At(d, func() { fired = append(fired, k.Now()) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		if len(fired) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKernelCounters(t *testing.T) {
	k := NewKernel()
	if k.Len() != 0 || k.Executed() != 0 {
		t.Fatal("fresh kernel not empty")
	}
	k.At(time.Second, func() {})
	k.At(2*time.Second, func() {})
	if k.Len() != 2 {
		t.Errorf("Len = %d, want 2", k.Len())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Executed() != 2 || k.Len() != 0 {
		t.Errorf("Executed=%d Len=%d after run", k.Executed(), k.Len())
	}
}

func TestEventAtAccessor(t *testing.T) {
	k := NewKernel()
	e := k.At(3*time.Second, func() {})
	if e.At() != 3*time.Second {
		t.Errorf("At() = %v", e.At())
	}
}

// Property: RunUntil never executes events past the bound, in any order
// of scheduling.
func TestRunUntilBoundProperty(t *testing.T) {
	f := func(offsets []uint16, boundRaw uint16) bool {
		k := NewKernel()
		bound := time.Duration(boundRaw) * time.Microsecond
		late := 0
		for _, off := range offsets {
			d := time.Duration(off) * time.Microsecond
			k.At(d, func() {
				if k.Now() > bound {
					late++
				}
			})
		}
		if err := k.RunUntil(bound); err != nil {
			return false
		}
		return late == 0 && k.Now() == bound
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQueueDifferential drives seeded random interleavings of At,
// AtCall, Step and Cancel against a reference model: a slice of the
// pending (at, seq) keys, sorted before every pop. Cancel targets the
// root, the last slot, a middle slot and already-fired events. After
// every operation each queued event's index must equal its slot and
// every slot must not fire before its parent.
func TestQueueDifferential(t *testing.T) {
	type entry struct {
		at  time.Duration
		seq uint64
		id  int
		ev  *Event // nil for pooled AtCall events, which cannot be canceled
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var model []entry
		var fired []int
		var done []*Event      // At events that already fired
		var cancelled []*Event // At events removed by Cancel
		ids := map[*Event]int{}
		cancels := map[string]int{}
		rearms := map[string]int{}
		nextID := 0
		callFn := func(x any) { fired = append(fired, x.(int)) }
		sortModel := func() {
			sort.Slice(model, func(i, j int) bool {
				return model[i].at < model[j].at || (model[i].at == model[j].at && model[i].seq < model[j].seq)
			})
		}

		check := func(op string) {
			t.Helper()
			q := k.queue
			if len(q) != len(model) {
				t.Fatalf("seed %d after %s: queue holds %d events, model %d", seed, op, len(q), len(model))
			}
			for i, e := range q {
				if e.index != i {
					t.Fatalf("seed %d after %s: q[%d].index = %d", seed, op, i, e.index)
				}
				if i > 0 && before(e, q[(i-1)/4]) {
					t.Fatalf("seed %d after %s: q[%d] fires before its parent", seed, op, i)
				}
			}
		}
		schedule := func(pooled bool) {
			at := k.Now() + time.Duration(rng.Intn(8)) - 1 // ties and a clamped past
			m := entry{at: at, seq: k.seq, id: nextID}
			nextID++
			if m.at < k.Now() {
				m.at = k.Now()
			}
			if pooled {
				k.AtCall(at, callFn, m.id)
			} else {
				id := m.id
				m.ev = k.At(at, func() { fired = append(fired, id) })
				ids[m.ev] = id
			}
			model = append(model, m)
		}
		cancel := func(kind string, e *Event) {
			for i, m := range model {
				if m.ev != e {
					continue
				}
				if !e.Cancel() {
					t.Fatalf("seed %d: Cancel(%s) of pending event %d returned false", seed, kind, m.id)
				}
				model = append(model[:i], model[i+1:]...)
				cancels[kind]++
				cancelled = append(cancelled, e)
				return
			}
		}

		// rearm reschedules a spent event. Every other handle to it now
		// names the new arming, so it leaves both spent lists.
		rearm := func(kind string, list []*Event) {
			if len(list) == 0 {
				return
			}
			e := list[rng.Intn(len(list))]
			done, cancelled = without(done, e), without(cancelled, e)
			at := k.Now() + time.Duration(rng.Intn(8)) - 1
			m := entry{at: max(at, k.Now()), seq: k.seq, id: ids[e], ev: e}
			k.RearmAt(e, at)
			if !e.Pending() || e.At() != m.at {
				t.Fatalf("seed %d: re-armed event %d pending=%v at %v, want pending at %v", seed, m.id, e.Pending(), e.At(), m.at)
			}
			model = append(model, m)
			rearms[kind]++
		}

		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(11); {
			case r == 10:
				if rng.Intn(2) == 0 {
					rearm("fired", done)
				} else {
					rearm("cancelled", cancelled)
				}
				check("RearmAt")
			case r < 3:
				schedule(false)
				check("At")
			case r < 5:
				schedule(true)
				check("AtCall")
			case r < 8:
				if len(model) == 0 {
					continue
				}
				sortModel()
				want := model[0]
				model = model[1:]
				if !k.Step() {
					t.Fatalf("seed %d: Step on a non-empty queue returned false", seed)
				}
				if got := fired[len(fired)-1]; got != want.id || k.Now() != want.at {
					t.Fatalf("seed %d: popped event %d at %v, want %d at %v", seed, got, k.Now(), want.id, want.at)
				}
				if want.ev != nil {
					done = append(done, want.ev)
				}
				check("Step")
			default:
				n := len(k.queue)
				switch rng.Intn(4) {
				case 0:
					if n > 0 {
						cancel("root", k.queue[0])
					}
				case 1:
					if n > 0 {
						cancel("last", k.queue[n-1])
					}
				case 2:
					if n > 2 {
						cancel("middle", k.queue[1+rng.Intn(n-2)])
					}
				case 3:
					if len(done) > 0 {
						if done[rng.Intn(len(done))].Cancel() {
							t.Fatalf("seed %d: Cancel of a fired event returned true", seed)
						}
						cancels["fired"]++
					}
				}
				check("Cancel")
			}
		}
		// Drain: the remaining pops must follow the model's order too.
		sortModel()
		start := len(fired)
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if len(fired)-start != len(model) {
			t.Fatalf("seed %d: drained %d events, want %d", seed, len(fired)-start, len(model))
		}
		for i, m := range model {
			if fired[start+i] != m.id {
				t.Fatalf("seed %d: drain pop %d = event %d, want %d", seed, i, fired[start+i], m.id)
			}
		}
		for _, kind := range []string{"root", "last", "middle", "fired"} {
			if cancels[kind] == 0 {
				t.Errorf("seed %d: no Cancel hit the %s case", seed, kind)
			}
		}
		for _, kind := range []string{"fired", "cancelled"} {
			if rearms[kind] == 0 {
				t.Errorf("seed %d: no RearmAt hit a %s event", seed, kind)
			}
		}
	}
}

// without returns list minus every occurrence of e.
func without(list []*Event, e *Event) []*Event {
	out := list[:0]
	for _, x := range list {
		if x != e {
			out = append(out, x)
		}
	}
	return out
}

// TestRearmAt checks the re-arm primitive's contract: a spent event runs
// its callback again, a pending one cannot be re-armed, and re-arming
// takes a sequence number exactly as a fresh At would.
func TestRearmAt(t *testing.T) {
	k := NewKernel()
	runs := 0
	e := k.After(time.Millisecond, func() { runs++ })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RearmAt of a pending event did not panic")
			}
		}()
		k.RearmAt(e, 2*time.Millisecond)
	}()
	if err := k.Run(); err != nil || runs != 1 {
		t.Fatalf("first arming: runs=%d err=%v", runs, err)
	}
	k.RearmAfter(e, time.Millisecond)
	tie := k.At(2*time.Millisecond, func() { runs += 10 })
	if !e.Pending() || e.At() != 2*time.Millisecond || e.seq >= tie.seq {
		t.Fatalf("re-armed event pending=%v at=%v seq=%d (tie seq %d)", e.Pending(), e.At(), e.seq, tie.seq)
	}
	if err := k.Run(); err != nil || runs != 12 {
		t.Fatalf("after re-arm: runs=%d err=%v, want 12", runs, err)
	}
	if e.Pending() || e.Cancel() {
		t.Fatal("a re-armed event that fired still reports pending")
	}
	k.RearmAfter(e, time.Millisecond)
	e.Cancel()
	k.RearmAfter(e, time.Millisecond)
	if err := k.Run(); err != nil || runs != 13 || k.Executed() != 4 {
		t.Fatalf("re-arm after cancel: runs=%d executed=%d err=%v, want 13 and 4", runs, k.Executed(), err)
	}
}
