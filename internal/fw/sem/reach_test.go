package sem

import (
	"math/rand"
	"reflect"
	"testing"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

// TestExactLintBasics pins the finding vocabulary on hand-built sets
// where the exact and heuristic analyses must agree.
func TestExactLintBasics(t *testing.T) {
	cases := []struct {
		name string
		def  fw.Action
		rs   []fw.Rule
		opts fw.LintOptions
		want []fw.Finding
	}{
		{
			name: "shadowed",
			def:  fw.Deny,
			rs: []fw.Rule{
				fw.AllowAllRule(),
				{Name: "late", Action: fw.Deny, Direction: fw.Both, Proto: packet.ProtoTCP},
			},
			want: []fw.Finding{{Kind: fw.FindingShadowed, Rule: 2, By: 1}},
		},
		{
			name: "conflict",
			def:  fw.Deny,
			rs: []fw.Rule{
				{Name: "block-src", Action: fw.Deny, Direction: fw.In, Src: pfx("10.0.0.0/24")},
				{Name: "open-dst", Action: fw.Allow, Direction: fw.In, Dst: pfx("10.9.9.9/32")},
			},
			want: []fw.Finding{{Kind: fw.FindingConflict, Rule: 2, By: 1}},
		},
		{
			name: "redundant-union",
			def:  fw.Deny,
			rs: []fw.Rule{
				{Name: "lo", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(0, 100)},
				{Name: "hi", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(101, 65535)},
				{Name: "mid", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(50, 200)},
			},
			want: []fw.Finding{{Kind: fw.FindingRedundant, Rule: 3, Covering: []int{1, 2}}},
		},
		{
			name: "unreachable-mixed-union",
			def:  fw.Deny,
			rs: []fw.Rule{
				{Name: "lo", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(0, 100)},
				{Name: "hi", Action: fw.Deny, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(101, 65535)},
				{Name: "mid", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(50, 200)},
			},
			want: []fw.Finding{{Kind: fw.FindingUnreachable, Rule: 3, Covering: []int{1, 2}}},
		},
		{
			name: "depth",
			def:  fw.Deny,
			rs:   []fw.Rule{fw.NonMatchingRule(1), fw.AllowAllRule()},
			opts: fw.LintOptions{DepthWarn: 1},
			want: []fw.Finding{{Kind: fw.FindingDepth, Rule: 2, Depth: 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := fw.MustRuleSet(tc.def, tc.rs...)
			got := ExactLint(rs, tc.opts)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ExactLint = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestExactLintCrossClass: a plain allow-out wildcard swallows every
// cleartext packet a VPG outbound rule would seal. The heuristic's
// same-class guard skips the pair; the exact analysis proves the VPG
// rule dead.
func TestExactLintCrossClass(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Name: "open-out", Action: fw.Allow, Direction: fw.Out},
		fw.Rule{Name: "seal", Action: fw.Allow, Direction: fw.Out, VPG: "g", Src: pfx("10.0.0.0/8")},
	)
	exact := ExactLint(rs, fw.LintOptions{})
	want := []fw.Finding{{Kind: fw.FindingRedundant, Rule: 2, By: 1}}
	if !reflect.DeepEqual(exact, want) {
		t.Fatalf("exact = %v, want %v", exact, want)
	}
	if heur := rs.Lint(fw.LintOptions{}); len(heur) != 0 {
		t.Fatalf("heuristic unexpectedly found %v; the documented divergence is that it reports nothing here", heur)
	}
}

// TestExactLintPhantomConflict: the heuristic reports a conflict
// between rules 2 and 3 because their boxes partially overlap with
// opposite actions — but a VPG outbound wildcard (rule 1) takes every
// packet first, so the order dependence is phantom. The exact analysis
// instead proves rules 2 and 3 dead behind rule 1.
func TestExactLintPhantomConflict(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Name: "seal-all", Action: fw.Allow, Direction: fw.Out, VPG: "g"},
		fw.Rule{Name: "open-src", Action: fw.Allow, Direction: fw.Out, Src: pfx("10.0.0.0/8")},
		fw.Rule{Name: "block-dst", Action: fw.Deny, Direction: fw.Out, Dst: pfx("10.9.9.9/32")},
	)
	exact := ExactLint(rs, fw.LintOptions{})
	want := []fw.Finding{
		{Kind: fw.FindingRedundant, Rule: 2, By: 1},
		{Kind: fw.FindingShadowed, Rule: 3, By: 1},
	}
	if !reflect.DeepEqual(exact, want) {
		t.Fatalf("exact = %v, want %v", exact, want)
	}
	heur := rs.Lint(fw.LintOptions{})
	want = []fw.Finding{{Kind: fw.FindingConflict, Rule: 3, By: 2}}
	if !reflect.DeepEqual(heur, want) {
		t.Fatalf("heuristic = %v, want the documented phantom conflict %v", heur, want)
	}
}

func unreachableRules(fs []fw.Finding) map[int]bool {
	out := map[int]bool{}
	for _, f := range fs {
		switch f.Kind {
		case fw.FindingShadowed, fw.FindingRedundant, fw.FindingUnreachable:
			out[f.Rule] = true
		}
	}
	return out
}

func conflictPairs(fs []fw.Finding) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, f := range fs {
		if f.Kind == fw.FindingConflict {
			out[[2]int{f.Rule, f.By}] = true
		}
	}
	return out
}

func depthRules(fs []fw.Finding) map[int]bool {
	out := map[int]bool{}
	for _, f := range fs {
		if f.Kind == fw.FindingDepth {
			out[f.Rule] = true
		}
	}
	return out
}

// TestDifferentialLint is the heuristic-vs-exact differential on
// seeded random rule sets. The heuristic's one-sided guarantees, each
// asserted here:
//
//  1. Soundness of coverage claims: every rule Lint calls
//     shadowed/redundant/unreachable is exactly unreachable (its box
//     algebra is exact within a class; it only under-reports, via the
//     same-class guard and the worklist cap).
//  2. Conflict completeness within a class: every same-class conflict
//     the exact analysis proves (an earlier opposite-action rule
//     really decides part of the later rule's space) also appears in
//     Lint's overlap-based report. The converse is false: Lint also
//     reports phantom conflicts (see TestExactLintPhantomConflict)
//     and misses cross-class ones (TestExactLintCrossClass).
//  3. Depth-note soundness: exact depth notes are a subset of Lint's,
//     because exactly-reachable implies heuristically-reachable.
func TestDifferentialLint(t *testing.T) {
	opts := fw.LintOptions{DepthWarn: 8}
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		rs := Generate(r, GenOptions{Rules: 18})
		heur := rs.Lint(opts)
		exact := ExactLint(rs, opts)

		hUnreach, eUnreach := unreachableRules(heur), unreachableRules(exact)
		for rule := range hUnreach {
			if !eUnreach[rule] {
				t.Errorf("seed %d: heuristic claims rule %d unreachable, exact proof disagrees\npolicy:\n%v",
					seed, rule, rs)
			}
		}

		rules := rs.Rules()
		hConf, eConf := conflictPairs(heur), conflictPairs(exact)
		for pair := range eConf {
			i, j := pair[0], pair[1]
			if rules[i-1].IsVPG() != rules[j-1].IsVPG() {
				continue // cross-class: invisible to the heuristic by design
			}
			if !hConf[pair] {
				t.Errorf("seed %d: exact proves conflict %v, heuristic misses it\npolicy:\n%v", seed, pair, rs)
			}
		}

		hDepth, eDepth := depthRules(heur), depthRules(exact)
		for rule := range eDepth {
			if !hDepth[rule] {
				t.Errorf("seed %d: exact depth note on rule %d missing from heuristic", seed, rule)
			}
		}
	}
}

// TestExactReachabilityProbes: any rule observed deciding a real probe
// packet must be in the exact reachable set.
func TestExactReachabilityProbes(t *testing.T) {
	probes := rand.New(rand.NewSource(5))
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		rs := Generate(r, GenOptions{Rules: 16})
		unreach := unreachableRules(ExactLint(rs, fw.LintOptions{}))
		for p := 0; p < 500; p++ {
			s, dir := genSummary(probes)
			v := rs.Eval(s, dir)
			if v.Index != 0 && unreach[v.Index] {
				t.Fatalf("seed %d: rule %d proven unreachable but decided probe %v %v\npolicy:\n%v",
					seed, v.Index, dir, s, rs)
			}
		}
	}
}

// refNode identifies a node of the decomposition for refWinners: the
// class's axis count, the level, and a live mask of up to three words.
type refNode struct {
	axes, level int
	mask        [3]uint64
}

// refWinners is the per-rule reference for lintWalker's one-pass
// winners: a walk of rule i's own share of the decomposition, from
// every class root that holds i, descending only into children where i
// stays live and recording the first live rule of each leaf reached.
// Nodes are deduplicated by (axes, level, mask) as in the one-pass walk.
func refWinners(sp *space, i int) []uint64 {
	t := sp.sets[0]
	out := make([]uint64, t.words)
	visited := make(map[refNode]bool)
	for _, c := range classes {
		m := t.startMask(c)
		if !hasBit(m, i) {
			continue
		}
		refWinRecurse(sp, axesFor(c), 0, m, i, out, visited)
	}
	out[(i-1)/64] &^= 1 << (uint(i-1) % 64)
	return out
}

func refWinRecurse(sp *space, axes []int, level int, mask []uint64, i int, out []uint64, visited map[refNode]bool) {
	key := refNode{axes: len(axes), level: level}
	copy(key.mask[:], mask)
	if visited[key] {
		return
	}
	visited[key] = true
	if level == len(axes) {
		f := firstBit(mask) // >= 1: bit i is set
		out[(f-1)/64] |= 1 << (uint(f-1) % 64)
		return
	}
	t := sp.sets[0]
	axis := axes[level]
	for k := 0; k < len(sp.bounds[axis]); k++ {
		seg := t.segMask(axis, k)
		if !hasBit(seg, i) {
			continue // rule i dead below: region is outside i's space
		}
		child := make([]uint64, t.words)
		andMasks(child, mask, seg)
		refWinRecurse(sp, axes, level+1, child, i, out, visited)
	}
}

// TestLintWinnersMatchPerRuleWalk is the differential between
// ExactLint's one-pass winner sets and the per-rule reference walk on
// 150 seeded sets of 1 to 140 rules (one to three mask words), plus
// the reached set: a rule decides some region exactly when it wins
// somewhere against itself.
func TestLintWinnersMatchPerRuleWalk(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(seed*37)%140
		rs := Generate(r, GenOptions{Rules: n})
		sp := newSpace(rs)
		w := newLintWalker(sp)
		for _, c := range classes {
			w.walkClass(c)
		}
		for i := 1; i <= n; i++ {
			self := hasBit(w.wins[(i-1)*w.t.words:i*w.t.words], i)
			if self != hasBit(w.reached, i) {
				t.Fatalf("seed %d (%d rules): rule %d wins against itself=%v but reached=%v", seed, n, i, self, !self)
			}
			got, want := w.winners(i), refWinners(sp, i)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (%d rules): rule %d winners %v, per-rule walk %v", seed, n, i, bitsOf(got), bitsOf(want))
			}
		}
	}
}
