package sem

import (
	"math/bits"

	"barbican/internal/fw"
)

// ExactLint is the proven replacement for RuleSet.Lint's heuristic
// findings: it decides reachability, shadowing, redundancy, and
// conflicts by walking the exact region decomposition instead of box
// subtraction, and emits fw.Finding values in Lint's shape and order
// (per rule ascending; unreachable-class finding, or conflicts by
// earlier-rule position then the depth note) so severities and
// rendering carry over unchanged.
//
// Where Lint approximates, ExactLint proves:
//
//   - Reachability is decided over every atomic region, so coverage
//     through a *different* traffic class (a plain allow-out rule
//     swallowing the cleartext packets a VPG rule would seal, which
//     Lint's same-class guard skips) is detected.
//   - The covering list is the set of rules that actually take the
//     unreachable rule's packets (its "winners"), not the subtraction
//     order of a worklist; there is no give-up cap.
//   - A conflict is reported only when the earlier opposite-action
//     rule genuinely decides part of this rule's match space. An
//     overlap whose every packet is taken by an even earlier rule is
//     phantom order-dependence, and Lint reports it; ExactLint does
//     not. The exception pattern (a later general rule containing an
//     earlier specific one) stays excluded, as in Lint.
func ExactLint(rs *fw.RuleSet, opts fw.LintOptions) []fw.Finding {
	if rs.Stateful() {
		// Connection state is not a packet coordinate, so the exact
		// decomposition cannot see it; fall back to the heuristic
		// linter, whose same-class guard skips cross-state pairs
		// conservatively.
		return rs.Lint(opts)
	}
	sp := newSpace(rs)
	t := sp.sets[0]
	w := newLintWalker(sp)
	for _, c := range classes {
		w.walkClass(c)
	}

	var findings []fw.Finding
	for i := 1; i <= t.n; i++ {
		ri := &t.rules[i-1]
		winners := w.winners(i)
		if !hasBit(w.reached, i) {
			findings = append(findings, classifyUnreachable(t, i, bitsOf(winners)))
			continue
		}
		for wd, x := range winners {
			for ; x != 0; x &= x - 1 {
				j := wd*64 + bits.TrailingZeros64(x) + 1
				rj := &t.rules[j-1]
				if rj.Action == ri.Action || coversExact(ri, rj) {
					continue
				}
				findings = append(findings, fw.Finding{Kind: fw.FindingConflict, Rule: i, By: j})
			}
		}
		if opts.DepthWarn > 0 && i > opts.DepthWarn {
			findings = append(findings, fw.Finding{Kind: fw.FindingDepth, Rule: i, Depth: i})
		}
	}
	return findings
}

// classifyUnreachable maps an unreachable rule and its winners to
// Lint's finding vocabulary: one decisive winner gives the pairwise
// shadowed/redundant form; several winners give the union form,
// redundant when removal is provably semantics-free (every winner
// applies the same action) and unreachable otherwise.
func classifyUnreachable(t *setTables, i int, winners []int) fw.Finding {
	ri := &t.rules[i-1]
	if len(winners) == 1 {
		kind := fw.FindingRedundant
		if t.rules[winners[0]-1].Action != ri.Action {
			kind = fw.FindingShadowed
		}
		return fw.Finding{Kind: kind, Rule: i, By: winners[0]}
	}
	kind := fw.FindingRedundant
	for _, j := range winners {
		if t.rules[j-1].Action != ri.Action {
			kind = fw.FindingUnreachable
			break
		}
	}
	return fw.Finding{Kind: kind, Rule: i, Covering: winners}
}

// lintWalker walks every distinct node of the region decomposition
// once and records, at each distinct leaf, which rule decides it and
// which rules it takes packets from.
//
// Rule j wins against rule i exactly when some leaf mask m holds bit i
// and firstBit(m) = j: every node on the path to that leaf holds bit i
// too, because masks only lose bits on the way down. So one walk over
// the distinct leaves fills every rule's winner set; there is no need
// to walk the decomposition again per rule.
type lintWalker struct {
	expander // tab holds the visited nodes
	t        *setTables
	// reached is the set of rules that decide at least one region.
	reached []uint64
	// wins holds rule i's winners at [(i-1)*words : i*words].
	wins []uint64
}

func newLintWalker(sp *space) *lintWalker {
	t := sp.sets[0]
	return &lintWalker{
		expander: newExpander(sp),
		t:        t,
		reached:  make([]uint64, t.words),
		wins:     make([]uint64, t.n*t.words),
	}
}

// walkClass visits every node below one class root not visited yet.
func (w *lintWalker) walkClass(c class) {
	axes := axesFor(c)
	root := w.nodeKey(len(axes), 0)
	copy(root[1:], w.t.startMask(c))
	if maskEmpty(root[1:]) {
		return
	}
	if id, fresh := w.tab.intern(root); fresh {
		w.visit(axes, 0, w.tab.key(id)[1:])
	}
}

// visit expands one newly visited node: a leaf is recorded, an inner
// node descends into each child (one per run) it has not visited
// before. A child with no live rule decides nothing and is skipped.
//
//barbican:noalloc
func (w *lintWalker) visit(axes []int, level int, mask []uint64) {
	if level == len(axes) {
		w.recordLeaf(mask)
		return
	}
	axis := axes[level]
	child := w.nodeKey(len(axes), level+1)
	w.t.markEdges(w.marks, axis, mask)
	starts := w.runs(level, axis)
	for _, k := range starts[:len(starts)-1] {
		andMasks(child[1:], mask, w.t.segMask(axis, int(k)))
		if maskEmpty(child[1:]) {
			continue
		}
		if id, fresh := w.tab.intern(child); fresh {
			w.visit(axes, level+1, w.tab.key(id)[1:])
		}
	}
}

// recordLeaf notes that the leaf's first live rule f decides a region,
// and that f takes packets from every rule live in it.
func (w *lintWalker) recordLeaf(mask []uint64) {
	f := firstBit(mask) // >= 1: mask is non-empty
	fword, fbit := (f-1)/64, uint64(1)<<(uint(f-1)%64)
	w.reached[fword] |= fbit
	for wd, x := range mask {
		for ; x != 0; x &= x - 1 {
			i := wd*64 + bits.TrailingZeros64(x)
			w.wins[i*w.t.words+fword] |= fbit
		}
	}
}

// winners returns the rules that decide at least one region in which
// rule i (1-based) also matches, without i itself: the rules that take
// i's packets. For an unreachable i this is its exact covering set.
// The result aliases the walker's table; i's own bit is cleared in it.
func (w *lintWalker) winners(i int) []uint64 {
	out := w.wins[(i-1)*w.t.words : i*w.t.words]
	out[(i-1)/64] &^= 1 << (uint(i-1) % 64)
	return out
}

// bitsOf expands a bitset into ascending 1-based indices.
func bitsOf(m []uint64) []int {
	var out []int
	for w, x := range m {
		for x != 0 {
			out = append(out, w*64+bits.TrailingZeros64(x)+1)
			x &= x - 1
		}
	}
	return out
}

// coversExact reports whether rule a matches every packet rule b
// matches, decided class by class over the modeled space (so a plain
// allow-out rule can cover a VPG rule's outbound cleartext, which the
// heuristic covers() conservatively never admits).
func coversExact(a, b *fw.Rule) bool {
	for _, c := range classes {
		if !b.AppliesTo(c.Dir, c.Sealed) || (!c.HasPorts && !b.MatchesPortless()) {
			continue
		}
		if !a.AppliesTo(c.Dir, c.Sealed) || (!c.HasPorts && !a.MatchesPortless()) {
			return false
		}
		for _, axis := range axesFor(c) {
			sa, sb := ruleSpan(a, axis), ruleSpan(b, axis)
			if sa.Lo > sb.Lo || sa.Hi < sb.Hi {
				return false
			}
		}
	}
	return true
}
