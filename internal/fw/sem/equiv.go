package sem

import (
	"fmt"
	"math/big"
	"math/bits"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

// RegionClass classifies the verdict relation of one atomic region
// between two rule sets (or two matcher implementations of one set).
type RegionClass int

// Region verdict classes.
const (
	// RegionUnchanged: same action, same deciding rule position.
	RegionUnchanged RegionClass = iota
	// RegionRedecided: same action, but a different rule (or the
	// default action) decides it — invisible to enforcement, visible
	// to attribution, counters, and depth cost.
	RegionRedecided
	// RegionAllowToDeny: packets admitted under the first set are
	// dropped under the second.
	RegionAllowToDeny
	// RegionDenyToAllow: packets dropped under the first set are
	// admitted under the second — the class that widens exposure.
	RegionDenyToAllow
	// NumRegionClasses sizes by-class arrays; not a real class.
	NumRegionClasses
)

// String names the class.
func (c RegionClass) String() string {
	//barbican:exhaustive
	switch c {
	case RegionUnchanged:
		return "unchanged"
	case RegionRedecided:
		return "redecided"
	case RegionAllowToDeny:
		return "allow-to-deny"
	case RegionDenyToAllow:
		return "deny-to-allow"
	default:
		return fmt.Sprintf("regionclass(%d)", int(c))
	}
}

// RegionVerdict is the verdict a rule set assigns to every packet of
// one atomic region: the action and the 1-based deciding rule index
// (0 = default action), the same convention as fw.Verdict.
type RegionVerdict struct {
	Action fw.Action
	Index  int
}

// String renders "allow (rule 3)" or "deny (default)".
func (v RegionVerdict) String() string {
	if v.Index == 0 {
		return fmt.Sprintf("%v (default)", v.Action)
	}
	return fmt.Sprintf("%v (rule %d)", v.Action, v.Index)
}

func classify(a, b RegionVerdict) RegionClass {
	if a.Action == b.Action {
		if a.Index == b.Index {
			return RegionUnchanged
		}
		return RegionRedecided
	}
	if a.Action == fw.Allow {
		return RegionAllowToDeny
	}
	return RegionDenyToAllow
}

// RegionDiff is one changed region with a concrete witness packet.
type RegionDiff struct {
	Region Region
	Class  RegionClass
	// From and To are the verdicts under the first and second set.
	From, To RegionVerdict
	// Packet and Dir are a witness inside the region.
	Packet packet.Summary
	Dir    fw.Direction
}

// String renders one witness line.
func (d RegionDiff) String() string {
	return fmt.Sprintf("%s: %v -> %v  witness %v %v [%v]",
		d.Class, d.From, d.To, d.Dir, d.Packet, d.Region)
}

// DiffOptions configures Diff.
type DiffOptions struct {
	// MaxWitnesses bounds the witness list (0 = 8). The walker yields
	// at most one witness per discrete traffic class.
	MaxWitnesses int
	// StrictIndex makes RegionRedecided count against equivalence:
	// two sets are then equivalent only when every packet is decided
	// by the same rule position, not merely given the same action.
	StrictIndex bool
	// MaxRegions bounds the number of atomic regions the walker may
	// materialize before giving up with an error (0 = 10,000,000).
	// Memoized subtree reuse does not count against the budget.
	MaxRegions uint64
}

// DiffResult is the exact semantic comparison of two rule sets over
// the entire modeled packet space.
type DiffResult struct {
	// Equivalent reports verdict equality on every packet: identical
	// actions everywhere (and identical deciding rules, with
	// StrictIndex).
	Equivalent bool
	// ByClass counts packets per verdict-relation class. Counts are
	// exact over the modeled universe: direction × sealed × port
	// presence × protocol × addresses (× ports for ported packets).
	ByClass [NumRegionClasses]*big.Int
	// ChangedPackets is ByClass[AllowToDeny] + ByClass[DenyToAllow].
	ChangedPackets *big.Int
	// RedecidedPackets is ByClass[RegionRedecided].
	RedecidedPackets *big.Int
	// TotalPackets is the size of the modeled universe.
	TotalPackets *big.Int
	// ChangedRegions counts the distinct atomic regions whose verdict
	// relation is not RegionUnchanged.
	ChangedRegions uint64
	// Witnesses holds up to MaxWitnesses concrete changed regions.
	Witnesses []RegionDiff
}

const (
	defaultDiffRegions   = 10_000_000
	defaultVerifyRegions = 4_000_000
	defaultMaxWitnesses  = 8
)

// universe is the number of packet tuples in the modeled space.
var universe = universeSize()

// universeSize sums, over the 8 classes, the product of the class's
// axis widths.
func universeSize() u128 {
	var total u128
	for _, c := range classes {
		total = total.add(tailCount(axesFor(c)))
	}
	return total
}

// tailCount is the number of packet tuples spanned by the given axes
// taken whole.
func tailCount(axes []int) u128 {
	count := u128{lo: 1}
	for _, axis := range axes {
		count = count.mul64(uint64(axisMax[axis]) + 1)
	}
	return count
}

// u128 is an unsigned 128-bit packet count. The whole modeled universe
// holds about 8.1e31 packets, under 2^107, so every count fits; the
// arithmetic panics on carry-out, which only a bug can cause.
type u128 struct{ hi, lo uint64 }

func (x u128) add(y u128) u128 {
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	hi, carry := bits.Add64(x.hi, y.hi, carry)
	if carry != 0 {
		panic("sem: packet count overflows 128 bits")
	}
	return u128{hi: hi, lo: lo}
}

func (x u128) mul64(y uint64) u128 {
	over, hi := bits.Mul64(x.hi, y)
	mid, lo := bits.Mul64(x.lo, y)
	hi, carry := bits.Add64(hi, mid, 0)
	if over != 0 || carry != 0 {
		panic("sem: packet count overflows 128 bits")
	}
	return u128{hi: hi, lo: lo}
}

// big converts the count for DiffResult.
func (x u128) big() *big.Int {
	b := new(big.Int).SetUint64(x.hi)
	b.Lsh(b, 64)
	return b.Or(b, new(big.Int).SetUint64(x.lo))
}

// diffNode is one memoized subtree result: packet counts per class
// over the remaining axes, changed-region count, and (when the
// subtree contains a changed region) one changed path for witness
// reconstruction.
type diffNode struct {
	byClass [NumRegionClasses]u128
	regions uint64 // changed regions in the subtree; > 0 means changed
	// The witness path continues with segment wSeg of this node's
	// axis and then inner child wChild's path (-1 when the child is a
	// leaf). tail marks a collapsed subtree whose path spans every
	// remaining axis whole. from and to are the deciding rule indexes
	// of the witness region under each set, class their relation.
	wSeg, wChild int32
	from, to     int32
	class        RegionClass
	tail         bool
	done         bool
}

// actionChange reports whether the class is an enforcement change
// (not a mere attribution change). Witness selection prefers these.
func actionChange(c RegionClass) bool {
	return c == RegionAllowToDeny || c == RegionDenyToAllow
}

// diffWalker walks the joint decomposition of two sets. Nodes are
// keyed by header + maskA + maskB, inner nodes in tab and leaves in
// leaves, so a node ID is both the dedup key of a child within an
// expansion and, for an inner node, the memo slot of its subtree. A
// leaf stores nothing: its verdicts are its masks' first bits.
type diffWalker struct {
	expander
	a, b   *setTables
	leaves *internTable
	nodes  []diffNode // per inner node ID
	budget uint64
	work   uint64
	// groupBuf holds one group list per level, reused by every
	// expansion at that level.
	groupBuf [numAxes][]diffGroup
	spans    [numAxes]fw.Span
}

func newDiffWalker(sp *space, budget uint64) *diffWalker {
	e := newExpander(sp)
	return &diffWalker{
		expander: e,
		a:        sp.sets[0], b: sp.sets[1],
		leaves: newInternTable(e.tab.width),
		nodes:  make([]diffNode, 0, 512),
		budget: budget,
	}
}

// verdicts maps a pair of deciding rule indexes to the two sets'
// verdicts and their relation.
func (w *diffWalker) verdicts(from, to int32) (va, vb RegionVerdict, cls RegionClass) {
	va = RegionVerdict{Action: w.a.verdictOf(int(from)), Index: int(from)}
	vb = RegionVerdict{Action: w.b.verdictOf(int(to)), Index: int(to)}
	return va, vb, classify(va, vb)
}

// Diff computes the exact semantic difference from rule set a (V1) to
// rule set b (V2): which packets change verdict, how many, and
// concrete witnesses. It is the policy-push question "what does this
// update actually do on the wire?" answered by proof.
func Diff(a, b *fw.RuleSet, opts DiffOptions) (*DiffResult, error) {
	if a.Stateful() || b.Stateful() {
		// Connection state is a conntrack attribute, not a packet
		// coordinate: the region decomposition cannot represent it, so
		// an answer here would silently treat stateful rules as
		// always-matchable. Refuse rather than prove the wrong claim.
		return nil, fmt.Errorf("sem: stateful rule sets are outside the packet-space model (state matchers present)")
	}
	if opts.MaxRegions == 0 {
		opts.MaxRegions = defaultDiffRegions
	}
	if opts.MaxWitnesses == 0 {
		opts.MaxWitnesses = defaultMaxWitnesses
	}
	w := newDiffWalker(newSpace(a, b), opts.MaxRegions)

	res := &DiffResult{}
	var byClass [NumRegionClasses]u128
	for _, c := range classes {
		axes := axesFor(c)
		root := w.nodeKey(len(axes), 0)
		copy(root[1:], w.a.startMask(c))
		copy(root[1+w.a.words:], w.b.startMask(c))
		id, _ := w.tab.intern(root)
		if err := w.recurse(axes, 0, id); err != nil {
			return nil, err
		}
		node := &w.nodes[id]
		for i := range byClass {
			byClass[i] = byClass[i].add(node.byClass[i])
		}
		res.ChangedRegions += node.regions
		if node.regions > 0 && len(res.Witnesses) < opts.MaxWitnesses {
			region := regionFor(c, w.witnessPath(axes, id))
			pkt, dir := region.Witness()
			from, to, cls := w.verdicts(node.from, node.to)
			res.Witnesses = append(res.Witnesses, RegionDiff{
				Region: region, Class: cls,
				From: from, To: to,
				Packet: pkt, Dir: dir,
			})
		}
	}
	for i := range res.ByClass {
		res.ByClass[i] = byClass[i].big()
	}
	res.ChangedPackets = byClass[RegionAllowToDeny].add(byClass[RegionDenyToAllow]).big()
	res.RedecidedPackets = byClass[RegionRedecided].big()
	res.TotalPackets = universe.big()
	res.Equivalent = res.ChangedPackets.Sign() == 0 &&
		(!opts.StrictIndex || res.RedecidedPackets.Sign() == 0)
	return res, nil
}

// Equivalent reports whether two rule sets assign every packet the
// same action, with witnesses for the difference when they do not.
func Equivalent(a, b *fw.RuleSet) (bool, []RegionDiff, error) {
	res, err := Diff(a, b, DiffOptions{})
	if err != nil {
		return false, nil, err
	}
	return res.Equivalent, res.Witnesses, nil
}

// diffGroup is one mask-distinct child during a level expansion.
type diffGroup struct {
	id     int32 // the child's node: a leaf below the last level
	repSeg int32
	width  uint64
}

// recurse computes inner node id's subtree result once; later visits
// reuse it. Leaves are classified in place, and every leaf visit
// counts against the region budget.
func (w *diffWalker) recurse(axes []int, level int, id int32) error {
	if n := w.tab.len() - len(w.nodes); n > 0 {
		w.nodes = reserve(w.nodes, n)[:w.tab.len()]
	}
	if w.nodes[id].done {
		return nil
	}
	key := w.tab.key(id)
	mA, mB := key[1:1+w.a.words], key[1+w.a.words:]

	var n diffNode
	if maskEmpty(mA) && maskEmpty(mB) {
		// Both sets dead: every deeper region takes the two default
		// actions, so the whole subtree collapses to one outcome
		// times the product of the remaining axis widths.
		n = w.emptyTail(axes[level:])
	} else {
		for _, g := range w.groups(axes, level, mA, mB) {
			var child diffNode
			if level+1 == len(axes) {
				w.work++
				if w.work > w.budget {
					return fmt.Errorf("sem: region budget %d exceeded (raise MaxRegions)", w.budget)
				}
				child = w.leaf(g.id)
				g.id = -1
			} else {
				if err := w.recurse(axes, level+1, g.id); err != nil {
					return err
				}
				child = w.nodes[g.id]
			}
			n.add(&child, g)
		}
	}
	n.done = true
	w.nodes[id] = n
	return nil
}

// add folds one group's child into n: its counts scaled by the
// group's width, its changed regions, and its witness when n has none
// yet or the child's changes the action where n's only re-attributes.
func (n *diffNode) add(child *diffNode, g diffGroup) {
	for i := range n.byClass {
		n.byClass[i] = n.byClass[i].add(child.byClass[i].mul64(g.width))
	}
	if child.regions > 0 && (n.regions == 0 || (actionChange(child.class) && !actionChange(n.class))) {
		n.wSeg, n.wChild = g.repSeg, g.id
		n.from, n.to, n.class = child.from, child.to, child.class
	}
	n.regions += child.regions
}

// leaf classifies one fully-decomposed region: the first live bit per
// set is the first-match rule for every packet in it.
func (w *diffWalker) leaf(id int32) diffNode {
	key := w.leaves.key(id)
	n := diffNode{
		from: int32(firstBit(key[1 : 1+w.a.words])),
		to:   int32(firstBit(key[1+w.a.words:])),
	}
	_, _, cls := w.verdicts(n.from, n.to)
	n.byClass[cls] = u128{lo: 1}
	if cls != RegionUnchanged {
		n.regions = 1
		n.class = cls
	}
	return n
}

// emptyTail is the collapsed subtree when no rule of either set is
// alive: default action vs default action over every remaining value.
func (w *diffWalker) emptyTail(axes []int) diffNode {
	_, _, cls := w.verdicts(0, 0)
	var n diffNode
	n.byClass[cls] = tailCount(axes)
	if cls != RegionUnchanged {
		n.regions = 1
		n.tail = true
		n.class = cls
	}
	return n
}

// groups expands one level under the live masks into one group per
// distinct (maskA, maskB) child, each summing the widths of the runs
// that yield it. Groups are ordered by first segment so walks are
// deterministic. The result is the level's reused group buffer.
//
//barbican:noalloc
func (w *diffWalker) groups(axes []int, level int, mA, mB []uint64) []diffGroup {
	axis := axes[level]
	tab := w.tab
	if level+1 == len(axes) {
		tab = w.leaves
	}
	child := w.nodeKey(len(axes), level+1)
	cA, cB := child[1:1+w.a.words], child[1+w.a.words:]
	w.a.markEdges(w.marks, axis, mA)
	w.b.markEdges(w.marks, axis, mB)
	starts := w.runs(level, axis)
	w.serial++
	out := w.groupBuf[level][:0]
	for r, k := range starts[:len(starts)-1] {
		andMasks(cA, mA, w.a.segMask(axis, int(k)))
		andMasks(cB, mB, w.b.segMask(axis, int(k)))
		id, group := tab.meet(child, w.serial, int32(len(out)))
		if int(group) == len(out) {
			out = append(out, diffGroup{id: id, repSeg: k})
		}
		out[group].width += w.sp.runWidth(axis, int(k), int(starts[r+1]))
	}
	w.groupBuf[level] = out
	return out
}

// witnessPath follows a changed node's witness path down to a leaf and
// returns one span per axis.
func (w *diffWalker) witnessPath(axes []int, id int32) []fw.Span {
	spans := w.spans[:0]
	for level := 0; id >= 0; level++ {
		n := &w.nodes[id]
		if n.tail {
			for _, axis := range axes[level:] {
				spans = append(spans, fw.Span{Lo: 0, Hi: axisMax[axis]})
			}
			break
		}
		spans = append(spans, w.sp.segSpan(axes[level], int(n.wSeg)))
		id = n.wChild
	}
	return spans
}
