package main

import (
	"runtime"
	"slices"
	"strings"
	"time"

	"barbican/internal/sim"
)

// handlerLayers are the packages whose event handlers get a row of
// their own in the layer table. A handler from any other package is
// charged to otherLayer, under its package name, so nothing the kernel
// runs is dropped from the table.
var handlerLayers = []string{"link", "nic", "stack", "measure"}

const (
	otherLayer = "other"
	modulePkgs = "barbican/internal/"
)

// layerOf names the package of a handler function, as printed by
// runtime.FuncForPC ("barbican/internal/nic/conntrack.(*Table).f" is
// package "nic/conntrack"), and the layer row it is charged to: the
// package's top directory when that is a handler layer, else
// otherLayer.
func layerOf(funcName string) (layer, pkg string) {
	name := funcName
	if i := strings.IndexAny(name, "[("); i >= 0 {
		name = name[:i]
	}
	pkg = name
	if i := strings.IndexByte(name[strings.LastIndexByte(name, '/')+1:], '.'); i >= 0 {
		pkg = name[:strings.LastIndexByte(name, '/')+1+i]
	}
	if rel, ok := strings.CutPrefix(pkg, modulePkgs); ok {
		pkg = rel
		top, _, _ := strings.Cut(rel, "/")
		for _, l := range handlerLayers {
			if top == l {
				return l, pkg
			}
		}
	}
	return otherLayer, pkg
}

// layerRow accumulates one layer's share of a traced window.
type layerRow struct {
	Name string
	// Pkgs lists the handler packages charged to the row.
	Pkgs []string
	// Events counts handler calls; Wall is host time inside the
	// outermost of them.
	Events uint64
	Wall   time.Duration
	// AllocEvents counts the calls sampled for allocations, Allocs the
	// heap objects they allocated.
	AllocEvents uint64
	Allocs      uint64
}

// layerTracer is a sim.StepProfiler that times every kernel→handler
// call on the host clock and charges it to the handler's layer. The
// gaps between handler calls — heap pop, the run loop and the tracer's
// own cost — are the kernel's outside-handler time, so the rows plus
// Outside add up to the window's wall time exactly.
//
// With allocEvery > 0 the tracer instead samples one call in
// allocEvery, reading the allocator's counters around it; the reads
// stop the world, so such a window is used for allocation counts only.
type layerTracer struct {
	k          *sim.Kernel
	allocEvery uint64

	rows  []layerRow
	byPC  map[uintptr]int
	seen  uint64
	depth int
	cur   int
	peak  int

	begin, last, stepStart time.Time
	Outside, Total         time.Duration

	ms      runtime.MemStats
	mallocs uint64
}

func newLayerTracer(k *sim.Kernel, allocEvery int) *layerTracer {
	t := &layerTracer{k: k, allocEvery: uint64(allocEvery), byPC: make(map[uintptr]int)}
	for _, l := range handlerLayers {
		t.rows = append(t.rows, layerRow{Name: l})
	}
	t.rows = append(t.rows, layerRow{Name: otherLayer})
	return t
}

// start opens the traced window and attaches the tracer; stop closes it.
func (t *layerTracer) start() {
	t.begin = time.Now()
	t.last = t.begin
	t.k.SetStepProfiler(t)
}

func (t *layerTracer) stop() {
	end := time.Now()
	t.k.SetStepProfiler(nil)
	t.k = nil // episodes keep their tracer; the testbed must be freed
	t.Outside += end.Sub(t.last)
	t.Total = end.Sub(t.begin)
}

// Take is called for every executed event. It tracks the queue's peak
// length (the popped event included) and picks the calls to bracket.
func (t *layerTracer) Take() bool {
	if n := t.k.Len() + 1; n > t.peak {
		t.peak = n
	}
	t.seen++
	return t.allocEvery == 0 || t.seen%t.allocEvery == 0
}

func (t *layerTracer) rowOf(pc uintptr) int {
	if i, ok := t.byPC[pc]; ok {
		return i
	}
	name := "unknown"
	if f := runtime.FuncForPC(pc); f != nil {
		name = f.Name()
	}
	layer, pkg := layerOf(name)
	i := 0 // the other row is last, so the search stops there
	for i < len(t.rows)-1 && t.rows[i].Name != layer {
		i++
	}
	if !slices.Contains(t.rows[i].Pkgs, pkg) {
		t.rows[i].Pkgs = append(t.rows[i].Pkgs, pkg)
		slices.Sort(t.rows[i].Pkgs)
	}
	t.byPC[pc] = i
	return i
}

// BeginStep opens a handler call. Nested kernel runs (a handler
// driving the kernel) count their events, but host time goes to the
// outermost call.
func (t *layerTracer) BeginStep(pc uintptr, _ time.Duration) {
	row := t.rowOf(pc)
	t.depth++
	if t.depth > 1 {
		t.rows[row].Events++
		return
	}
	t.cur = row
	if t.allocEvery > 0 {
		runtime.ReadMemStats(&t.ms)
		t.mallocs = t.ms.Mallocs
		return
	}
	now := time.Now()
	t.Outside += now.Sub(t.last)
	t.stepStart = now
}

// EndStep closes the innermost handler call.
func (t *layerTracer) EndStep() {
	t.depth--
	if t.depth > 0 {
		return
	}
	r := &t.rows[t.cur]
	r.Events++
	if t.allocEvery > 0 {
		runtime.ReadMemStats(&t.ms)
		r.AllocEvents++
		r.Allocs += t.ms.Mallocs - t.mallocs
		return
	}
	now := time.Now()
	r.Wall += now.Sub(t.stepStart)
	t.last = now
}

// row returns the named row (the zero row when absent).
func (t *layerTracer) row(name string) layerRow {
	for _, r := range t.rows {
		if r.Name == name {
			return r
		}
	}
	return layerRow{Name: name}
}

// handlerWall sums the rows' host time.
func (t *layerTracer) handlerWall() time.Duration {
	var sum time.Duration
	for _, r := range t.rows {
		sum += r.Wall
	}
	return sum
}
