package sem

import (
	"fmt"
	"math/rand"
	"testing"

	"barbican/internal/fw"
)

// BenchmarkSemEquiv tracks the cost of an exhaustive equivalence proof
// over the paper's experimental rule-set shape (depth-1 pad rules plus
// the action rule) at the Fig. 2 sweep's low and high depths. Exact
// verification runs at policy-push time when enabled, so its cost is a
// hot path like any other and regresses through the bench gate.
func BenchmarkSemEquiv(b *testing.B) {
	for _, depth := range []int{64, 512} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			mk := func() *fw.RuleSet {
				rs, err := fw.DepthRuleSet(depth, fw.AllowAllRule(), fw.Deny)
				if err != nil {
					b.Fatal(err)
				}
				return rs
			}
			v1, v2 := mk(), mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Diff(v1, v2, DiffOptions{StrictIndex: true})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Equivalent {
					b.Fatal("identical depth sets reported inequivalent")
				}
			}
		})
	}
}

// BenchmarkSemVerifyCompiled tracks the exhaustive compiled-vs-walk
// proof at the same depths.
func BenchmarkSemVerifyCompiled(b *testing.B) {
	for _, depth := range []int{64, 512} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			rs, err := fw.DepthRuleSet(depth, fw.AllowAllRule(), fw.Deny)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := VerifyCompiled(rs, VerifyOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatalf("proof failed: %+v", res)
				}
			}
		})
	}
}

// lintSink keeps the benchmarked lint calls live.
var lintSink []fw.Finding

// BenchmarkSemExactLint tracks the exact linter on the same depth
// sets: one walk of the decomposition fills every rule's winner set.
func BenchmarkSemExactLint(b *testing.B) {
	for _, depth := range []int{64, 512} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			rs, err := fw.DepthRuleSet(depth, fw.AllowAllRule(), fw.Deny)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lintSink = ExactLint(rs, fw.LintOptions{})
			}
		})
	}
}

// BenchmarkSemCorpus runs eight seeded Generate 64-rule sets through
// the three walks: the compiled-classifier proof, the diff against the
// previous set and the exact lint, as one operation. Generated sets
// are dense with overlapping rules, so unlike the depth sets above the
// walks expand thousands of distinct nodes per set.
func BenchmarkSemCorpus(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	corpus := make([]*fw.RuleSet, 8)
	for i := range corpus {
		corpus[i] = Generate(r, GenOptions{Rules: 64})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, rs := range corpus {
			vr, err := VerifyCompiled(rs, VerifyOptions{})
			if err != nil || !vr.OK() {
				b.Fatalf("set %d: proof failed: %v %+v", j, err, vr)
			}
			if _, err := Diff(corpus[(j+len(corpus)-1)%len(corpus)], rs, DiffOptions{}); err != nil {
				b.Fatalf("set %d: diff: %v", j, err)
			}
			lintSink = ExactLint(rs, fw.LintOptions{})
		}
	}
}
