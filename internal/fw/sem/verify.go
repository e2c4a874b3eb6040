package sem

import (
	"fmt"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

// VerifyOptions configures VerifyCompiled.
type VerifyOptions struct {
	// MaxRegions bounds how many atomic regions the proof may check
	// before giving up with an error (0 = 4,000,000).
	MaxRegions uint64
}

// Mismatch is a disproof: a concrete packet on which the linear walk,
// the compiled classifier, and/or the engine's prediction disagree.
type Mismatch struct {
	Region Region
	Packet packet.Summary
	Dir    fw.Direction
	// Walk, Compiled, Engine are the three verdicts for the packet.
	Walk, Compiled, Engine RegionVerdict
}

// String renders the disproof with all three verdicts.
func (m *Mismatch) String() string {
	return fmt.Sprintf("mismatch on %v %v [%v]: walk=%v compiled=%v engine=%v",
		m.Dir, m.Packet, m.Region, m.Walk, m.Compiled, m.Engine)
}

// VerifyResult reports the outcome of an exhaustive equivalence proof
// between RuleSet.Eval (the linear reference walk) and the compiled
// classifier built from the same rules.
type VerifyResult struct {
	// Regions is the number of atomic regions checked. One witness
	// per region covers the whole packet space: within a region every
	// rule matches all packets or none, so a matcher that is a pure
	// function of the per-rule match outcomes is constant there.
	Regions uint64
	// Rules is the size of the verified rule set.
	Rules int
	// Mismatch is the disproof witness, nil when the proof succeeded.
	Mismatch *Mismatch
	// ParityError reports a counter divergence (eval totals, per-rule
	// hit counts, default hits) after the full sweep; empty when the
	// counters agree.
	ParityError string
}

// OK reports whether the proof succeeded.
func (r *VerifyResult) OK() bool { return r.Mismatch == nil && r.ParityError == "" }

// VerifyCompiled exhaustively proves that fw.Compile preserves the
// linear walk's semantics for one rule set: it enumerates every atomic
// region of the packet space, evaluates one witness per region through
// private copies of both matchers, and compares verdicts (action,
// deciding index, traversal depth) plus the engine's own first-match
// prediction. It finishes by checking counter parity across the sweep.
//
// Unlike Diff, this walk cannot merge regions or memoize subtrees: the
// point is to drive the real implementations, whose lookup tables are
// indexed by concrete coordinates, over every mask-distinct region.
// The proof upgrades the sampled differential test of the compiled
// matcher to full coverage per rule set.
func VerifyCompiled(rs *fw.RuleSet, opts VerifyOptions) (*VerifyResult, error) {
	if rs.Stateful() {
		// See Diff: connection state is not a packet coordinate. The
		// stateful compiled≡walk property is covered by the seeded
		// differential test in fw instead.
		return nil, fmt.Errorf("sem: stateful rule sets are outside the packet-space model (state matchers present)")
	}
	if opts.MaxRegions == 0 {
		opts.MaxRegions = defaultVerifyRegions
	}
	// Private copies so the proof's evaluations don't pollute the live
	// set's counters, and so the two matchers' counters can be
	// compared in isolation.
	walk := fw.MustRuleSet(rs.Default(), rs.Rules()...)
	compiledSet := fw.MustRuleSet(rs.Default(), rs.Rules()...)
	compiled := fw.Compile(compiledSet)

	sp := newSpace(rs)
	w := &verifyWalker{
		expander: newExpander(sp),
		t:        sp.sets[0],
		walk:     walk, compiled: compiled,
		budget: opts.MaxRegions,
		res:    &VerifyResult{Rules: rs.Len()},
	}
	for _, c := range classes {
		if err := w.recurse(c, axesFor(c), 0, w.t.startMask(c)); err != nil {
			return nil, err
		}
		if w.res.Mismatch != nil {
			return w.res, nil
		}
	}
	// Both matchers saw the identical evaluation sequence; their
	// counters must agree exactly.
	we, wm, wd := walk.Stats()
	ce, cm, cd := compiledSet.Stats()
	if we != ce || wd != cd {
		w.res.ParityError = fmt.Sprintf("evals walk=%d compiled=%d, default hits walk=%d compiled=%d", we, ce, wd, cd)
	} else {
		for i := range wm {
			if wm[i] != cm[i] {
				w.res.ParityError = fmt.Sprintf("rule %d hit count walk=%d compiled=%d", i+1, wm[i], cm[i])
				break
			}
		}
	}
	return w.res, nil
}

type verifyWalker struct {
	expander // tab tells a child an expansion already met from a new one
	t        *setTables
	walk     *fw.RuleSet
	compiled *fw.CompiledSet
	budget   uint64
	res      *VerifyResult
	// spans is the region chosen so far, one segment per walked axis.
	spans [numAxes]fw.Span
}

// recurse checks every region below one node, one per mask-distinct
// child in first-segment order.
func (w *verifyWalker) recurse(c class, axes []int, level int, mask []uint64) error {
	if level == len(axes) {
		return w.check(c, mask, w.spans[:len(axes)])
	}
	axis := axes[level]
	child := w.nodeKey(len(axes), level+1)
	w.t.markEdges(w.marks, axis, mask)
	starts := w.runs(level, axis)
	w.serial++
	serial := w.serial
	var met int32 // distinct children so far
	// Group mask-identical segments: one witness per distinct child
	// suffices, because both matchers reduce the packet to its
	// per-rule match bits before deciding.
	for _, k := range starts[:len(starts)-1] {
		andMasks(child[1:], mask, w.t.segMask(axis, int(k)))
		id, group := w.tab.meet(child, serial, met)
		if group != met {
			continue // met through an earlier run
		}
		met++
		w.spans[level] = w.sp.segSpan(axis, int(k))
		if err := w.recurse(c, axes, level+1, w.tab.key(id)[1:]); err != nil {
			return err
		}
		if w.res.Mismatch != nil {
			return nil
		}
	}
	return nil
}

// check evaluates one region's witness through both matchers and the
// engine prediction.
func (w *verifyWalker) check(c class, mask []uint64, spans []fw.Span) error {
	w.res.Regions++
	if w.res.Regions > w.budget {
		return fmt.Errorf("sem: verification budget %d regions exceeded (raise MaxRegions)", w.budget)
	}
	region := regionFor(c, spans)
	pkt, dir := region.Witness()

	first := firstBit(mask)
	engine := RegionVerdict{Action: w.t.verdictOf(first), Index: first}
	wv := w.walk.Eval(pkt, dir)
	cv := w.compiled.Eval(pkt, dir)
	if wv.Action != cv.Action || wv.Index != cv.Index || wv.Traversed != cv.Traversed ||
		wv.Action != engine.Action || wv.Index != engine.Index {
		w.res.Mismatch = &Mismatch{
			Region: region, Packet: pkt, Dir: dir,
			Walk:     RegionVerdict{Action: wv.Action, Index: wv.Index},
			Compiled: RegionVerdict{Action: cv.Action, Index: cv.Index},
			Engine:   engine,
		}
	}
	return nil
}
