// Package sem is the exact policy-semantics engine: it decides
// questions about rule sets — equivalence, semantic diff, reachability
// — over the *entire* packet space, by proof rather than sampling.
//
// The engine works by atomic-interval decomposition. A validated
// rule's match predicate, restricted to one discrete traffic class
// (direction × sealed × port presence), is a product of inclusive
// integer intervals over five axes: protocol, source address,
// destination address, source port, destination port (lint.go's box
// geometry, shared through fw's Span helpers). Cutting every axis at
// every interval boundary of every rule under analysis yields
// elementary segments; a product of one segment per axis is an atomic
// region, and by construction every rule either matches all packets
// in a region or none of them. First-match semantics are therefore
// constant per region, so any per-packet question becomes a finite —
// and exhaustively checkable — per-region question.
//
// Enumerating the raw product of segments would be astronomically
// large, so the walker descends axis by axis carrying the bitmask of
// rules still alive (those whose intervals cover every segment chosen
// so far), merging segments with identical masks into one child and
// memoizing subtrees by (axis, mask) — the structure of a firewall
// decision diagram with node sharing. Regions the walker visits are
// exactly the distinct mask combinations; everything merged away is
// provably identical.
package sem

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

// Axis indices, in walk order. Port axes are walked only for classes
// whose packets carry transport ports.
const (
	axisProto = iota
	axisSrc
	axisDst
	axisSrcPort
	axisDstPort
	numAxes
)

// axisMax is the inclusive top of each axis.
var axisMax = [numAxes]uint32{
	axisProto:   255,
	axisSrc:     ^uint32(0),
	axisDst:     ^uint32(0),
	axisSrcPort: 65535,
	axisDstPort: 65535,
}

// ruleSpan returns the rule's match interval on one axis.
func ruleSpan(r *fw.Rule, axis int) fw.Span {
	switch axis {
	case axisProto:
		return fw.ProtoSpan(r)
	case axisSrc:
		return fw.SrcSpan(r)
	case axisDst:
		return fw.DstSpan(r)
	case axisSrcPort:
		return fw.SrcPortSpan(r)
	case axisDstPort:
		return fw.DstPortSpan(r)
	default:
		panic(fmt.Sprintf("sem: invalid axis %d", axis))
	}
}

// class is one discrete traffic class: travel direction, sealed
// envelope or cleartext, and whether the packet carries transport
// ports. The five interval axes decompose independently within each
// of the eight classes.
type class struct {
	Dir      fw.Direction // In or Out
	Sealed   bool
	HasPorts bool
}

// classes enumerates the eight discrete classes in a fixed order so
// every walk, count, and witness list is deterministic.
var classes = [8]class{
	{fw.In, false, false}, {fw.In, false, true},
	{fw.In, true, false}, {fw.In, true, true},
	{fw.Out, false, false}, {fw.Out, false, true},
	{fw.Out, true, false}, {fw.Out, true, true},
}

// axesFor returns the axis walk order for a class: portless packets
// have no port coordinates, so their space is three-dimensional.
func axesFor(c class) []int {
	if c.HasPorts {
		return []int{axisProto, axisSrc, axisDst, axisSrcPort, axisDstPort}
	}
	return []int{axisProto, axisSrc, axisDst}
}

// setTables is the per-rule-set compiled geometry over a shared set of
// axis cuts: per-axis per-segment coverage bitmasks plus the discrete
// class masks, mirroring fw.CompiledSet's structure (bit i = rule i+1).
type setTables struct {
	rs    *fw.RuleSet
	rules []fw.Rule
	n     int
	words int

	// classMask[d][s] is the mask of rules applicable to direction
	// In+d traveling sealed (s=1) or cleartext (s=0).
	classMask [2][2][]uint64
	// portless is the mask of rules that can match packets without
	// transport ports.
	portless []uint64
	// axisMasks[axis] holds one words-sized mask per segment of the
	// shared cuts, flattened.
	axisMasks [numAxes][]uint64
	// edges[axis] holds, for rule i at [2i] and [2i+1], the first
	// segment the rule covers and one past the last: the only two
	// segments where the rule's coverage changes. cutting[axis] is the
	// mask of rules that do not cover the whole axis.
	edges   [numAxes][]int32
	cutting [numAxes][]uint64
}

// space is the joint decomposition of the packet space for one or two
// rule sets: shared axis cuts (from the union of all boundaries) and
// per-set coverage tables.
type space struct {
	sets   []*setTables
	bounds [numAxes][]uint32 // segment starts per axis; bounds[0] == 0
}

// newSpace builds the joint decomposition for the given rule sets.
func newSpace(sets ...*fw.RuleSet) *space {
	sp := &space{}
	for axis := 0; axis < numAxes; axis++ {
		var cuts []uint32
		cuts = append(cuts, 0)
		for _, rs := range sets {
			rules := rs.Rules()
			for i := range rules {
				s := ruleSpan(&rules[i], axis)
				if s.Lo > 0 {
					cuts = append(cuts, s.Lo)
				}
				if s.Hi < axisMax[axis] {
					cuts = append(cuts, s.Hi+1)
				}
			}
		}
		slices.Sort(cuts)
		sp.bounds[axis] = slices.Compact(cuts)
	}
	for _, rs := range sets {
		sp.sets = append(sp.sets, newSetTables(rs, sp))
	}
	return sp
}

// runWidth returns the number of values in segments k to next-1 of
// an axis.
func (sp *space) runWidth(axis, k, next int) uint64 {
	b := sp.bounds[axis]
	if next < len(b) {
		return uint64(b[next] - b[k])
	}
	return uint64(axisMax[axis]-b[k]) + 1
}

// segSpan returns segment k of an axis as an inclusive interval.
func (sp *space) segSpan(axis, k int) fw.Span {
	b := sp.bounds[axis]
	hi := axisMax[axis]
	if k+1 < len(b) {
		hi = b[k+1] - 1
	}
	return fw.Span{Lo: b[k], Hi: hi}
}

func newSetTables(rs *fw.RuleSet, sp *space) *setTables {
	rules := rs.Rules()
	n := len(rules)
	t := &setTables{rs: rs, rules: rules, n: n, words: (n + 63) / 64}
	for d := 0; d < 2; d++ {
		for s := 0; s < 2; s++ {
			t.classMask[d][s] = make([]uint64, t.words)
		}
	}
	t.portless = make([]uint64, t.words)
	dirs := [2]fw.Direction{fw.In, fw.Out}
	for i := range rules {
		r := &rules[i]
		w, bit := i/64, uint64(1)<<(i%64)
		for d, dir := range dirs {
			for s := 0; s < 2; s++ {
				if r.AppliesTo(dir, s == 1) {
					t.classMask[d][s][w] |= bit
				}
			}
		}
		if r.MatchesPortless() {
			t.portless[w] |= bit
		}
	}
	for axis := 0; axis < numAxes; axis++ {
		bounds := sp.bounds[axis]
		masks := make([]uint64, len(bounds)*t.words)
		edges := make([]int32, 2*n)
		cutting := make([]uint64, t.words)
		for i := range rules {
			// Both ends of the span are cuts (or the axis ends), so
			// the rule covers exactly segments lo to hi-1.
			s := ruleSpan(&rules[i], axis)
			lo, _ := slices.BinarySearch(bounds, s.Lo)
			hi := len(bounds)
			if s.Hi < axisMax[axis] {
				hi, _ = slices.BinarySearch(bounds, s.Hi+1)
			}
			edges[2*i], edges[2*i+1] = int32(lo), int32(hi)
			w, bit := i/64, uint64(1)<<(i%64)
			if lo > 0 || hi < len(bounds) {
				cutting[w] |= bit
			}
			for k := lo; k < hi; k++ {
				masks[k*t.words+w] |= bit
			}
		}
		t.axisMasks[axis] = masks
		t.edges[axis] = edges
		t.cutting[axis] = cutting
	}
	return t
}

// markEdges sets, in the segment bitset marks, every segment of an
// axis where a rule live in m starts or stops covering.
func (t *setTables) markEdges(marks []uint64, axis int, m []uint64) {
	edges, cutting := t.edges[axis], t.cutting[axis]
	for w, x := range m {
		for x &= cutting[w]; x != 0; x &= x - 1 {
			i := w*64 + bits.TrailingZeros64(x)
			lo, hi := edges[2*i], edges[2*i+1]
			marks[lo/64] |= 1 << (uint(lo) % 64)
			marks[hi/64] |= 1 << (uint(hi) % 64)
		}
	}
}

// expander is the per-call state every walk expands nodes with. It
// splits a node's axis into runs: maximal stretches of consecutive
// segments over which no live rule starts or stops covering, so every
// segment of a run yields the same child. A node has one child per
// run, not one per segment, and the runs come in segment order, so
// the first run yielding a child starts at the first segment that
// does. Child keys are built in per-level scratch and interned in tab.
type expander struct {
	sp     *space
	tab    *internTable
	serial uint32           // expansions so far
	keys   []uint64         // one scratch key per level
	marks  []uint64         // segment bitset, all zero between expansions
	starts [numAxes][]int32 // per level: run starts, then the segment count
}

// newExpander sizes keys for the live masks of every set in sp.
func newExpander(sp *space) expander {
	width, segs := 1, 0
	for _, t := range sp.sets {
		width += t.words
	}
	for _, b := range sp.bounds {
		segs = max(segs, len(b))
	}
	return expander{
		sp:    sp,
		tab:   newInternTable(width),
		keys:  make([]uint64, (numAxes+1)*width),
		marks: make([]uint64, segs/64+1),
	}
}

// nodeKey returns the scratch key for a node at level of a walk over
// axesLen axes, with its header word set; the caller fills in the
// live masks after it.
func (e *expander) nodeKey(axesLen, level int) []uint64 {
	key := e.keys[level*e.tab.width : (level+1)*e.tab.width]
	key[0] = nodeHeader(axesLen, level)
	return key
}

// runs returns the runs of an axis marked by markEdges for the node
// at level: the ascending run starts, then the segment count. It
// clears the marks for the next expansion.
//
//barbican:noalloc
func (e *expander) runs(level, axis int) []int32 {
	segs := len(e.sp.bounds[axis])
	starts := e.starts[level][:0]
	e.marks[0] |= 1
	for w := 0; w <= segs/64; w++ {
		x := e.marks[w]
		e.marks[w] = 0
		for ; x != 0; x &= x - 1 {
			if k := w*64 + bits.TrailingZeros64(x); k < segs {
				starts = append(starts, int32(k))
			}
		}
	}
	starts = append(starts, int32(segs))
	e.starts[level] = starts
	return starts
}

// startMask returns the set's live mask at the root of a class walk.
func (t *setTables) startMask(c class) []uint64 {
	m := make([]uint64, t.words)
	copy(m, t.classMask[c.Dir-fw.In][b2i(c.Sealed)])
	if !c.HasPorts {
		for w := range m {
			m[w] &= t.portless[w]
		}
	}
	return m
}

// segMask returns the set's coverage mask for segment k of an axis.
func (t *setTables) segMask(axis, k int) []uint64 {
	return t.axisMasks[axis][k*t.words : (k+1)*t.words]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// firstBit returns the 1-based index of the lowest set bit, or 0 when
// the mask is empty — directly the 1-based first-match rule index with
// 0 meaning the default action, the same convention as fw.Verdict.
func firstBit(m []uint64) int {
	for w, x := range m {
		if x != 0 {
			return w*64 + bits.TrailingZeros64(x) + 1
		}
	}
	return 0
}

func maskEmpty(m []uint64) bool {
	for _, x := range m {
		if x != 0 {
			return false
		}
	}
	return true
}

func hasBit(m []uint64, i int) bool { // i is 1-based
	return m[(i-1)/64]&(1<<(uint(i-1)%64)) != 0
}

func andMasks(dst, a, b []uint64) {
	for w := range dst {
		dst[w] = a[w] & b[w]
	}
}

// verdictOf maps a first-match index to the set's action for it.
func (t *setTables) verdictOf(first int) fw.Action {
	if first == 0 {
		return t.rs.Default()
	}
	return t.rules[first-1].Action
}

// Region is one atomic region of the packet space in human terms: the
// discrete class plus one interval per axis. Port spans are
// meaningful only when HasPorts.
type Region struct {
	Dir              fw.Direction
	Sealed           bool
	HasPorts         bool
	Proto            fw.Span
	Src, Dst         fw.Span
	SrcPort, DstPort fw.Span
}

// String renders the region compactly, e.g.
// "in clear proto tcp src 10.0.0.0-10.0.0.255 dst any sport any dport 80-90".
func (g Region) String() string {
	var b strings.Builder
	b.WriteString(g.Dir.String())
	if g.Sealed {
		b.WriteString(" sealed")
	} else {
		b.WriteString(" clear")
	}
	fmt.Fprintf(&b, " proto %s", protoSpanString(g.Proto))
	fmt.Fprintf(&b, " src %s dst %s", addrSpanString(g.Src), addrSpanString(g.Dst))
	if g.HasPorts {
		fmt.Fprintf(&b, " sport %s dport %s", portSpanString(g.SrcPort), portSpanString(g.DstPort))
	} else {
		b.WriteString(" portless")
	}
	return b.String()
}

func protoSpanString(s fw.Span) string {
	if s.Lo == 0 && s.Hi == 255 {
		return "any"
	}
	if s.Lo == s.Hi {
		return packet.Protocol(s.Lo).String()
	}
	return fmt.Sprintf("%d-%d", s.Lo, s.Hi)
}

func addrSpanString(s fw.Span) string {
	if s.Lo == 0 && s.Hi == ^uint32(0) {
		return "any"
	}
	if s.Lo == s.Hi {
		return packet.IPFromUint32(s.Lo).String()
	}
	return fmt.Sprintf("%v-%v", packet.IPFromUint32(s.Lo), packet.IPFromUint32(s.Hi))
}

func portSpanString(s fw.Span) string {
	if s.Lo == 0 && s.Hi == 65535 {
		return "any"
	}
	if s.Lo == s.Hi {
		return fmt.Sprint(s.Lo)
	}
	return fmt.Sprintf("%d-%d", s.Lo, s.Hi)
}

// regionFor assembles a Region from a class and the chosen segment
// spans in walk-axis order.
func regionFor(c class, spans []fw.Span) Region {
	g := Region{Dir: c.Dir, Sealed: c.Sealed, HasPorts: c.HasPorts}
	g.Proto, g.Src, g.Dst = spans[0], spans[1], spans[2]
	if c.HasPorts {
		g.SrcPort, g.DstPort = spans[3], spans[4]
	} else {
		g.SrcPort = fw.Span{Lo: 0, Hi: 65535}
		g.DstPort = fw.Span{Lo: 0, Hi: 65535}
	}
	return g
}

// Witness converts the region into one concrete packet summary (plus
// direction) that lies inside it. Representative values are the low
// ends of each interval, except the protocol, which prefers a
// well-known value when the span admits one so the witness can be
// replayed through explain tooling verbatim: tcp/udp for ported
// regions, icmp (naturally portless) for portless ones.
func (g Region) Witness() (packet.Summary, fw.Direction) {
	s := packet.Summary{
		Proto:    packet.Protocol(preferProto(g.Proto, g.HasPorts)),
		Src:      packet.IPFromUint32(g.Src.Lo),
		Dst:      packet.IPFromUint32(g.Dst.Lo),
		Sealed:   g.Sealed,
		HasPorts: g.HasPorts,
		IPLen:    40,
	}
	if g.HasPorts {
		s.SrcPort = uint16(g.SrcPort.Lo)
		s.DstPort = uint16(g.DstPort.Lo)
	}
	return s, g.Dir
}

// preferProto picks a representative protocol from a span: TCP, then
// UDP for ported regions; ICMP first for portless ones; the low end
// when no well-known value fits.
func preferProto(s fw.Span, hasPorts bool) uint32 {
	order := []uint32{uint32(packet.ProtoTCP), uint32(packet.ProtoUDP), uint32(packet.ProtoICMP)}
	if !hasPorts {
		order = []uint32{uint32(packet.ProtoICMP), uint32(packet.ProtoVPGEncap)}
	}
	for _, p := range order {
		if s.Contains(p) {
			return p
		}
	}
	return s.Lo
}
