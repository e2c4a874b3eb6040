package sem

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"barbican/internal/fw"
)

// goldenSizes cover one-word (24, 64 rules) and three-word (130 rules)
// live masks.
var goldenSizes = []int{24, 64, 130}

// swapAdjacent returns rs with rules k and k+1 exchanged: a pair whose
// diff is dominated by redecided regions rather than action changes.
func swapAdjacent(rs *fw.RuleSet, k int) *fw.RuleSet {
	rules := append([]fw.Rule(nil), rs.Rules()...)
	rules[k], rules[k+1] = rules[k+1], rules[k]
	return fw.MustRuleSet(rs.Default(), rules...)
}

// renderSemOutputs renders every output of the three exact walks on
// the golden corpus: each set's proof and lint findings, and each
// pair's full diff with and without StrictIndex.
func renderSemOutputs(t *testing.T) string {
	var b strings.Builder
	for _, n := range goldenSizes {
		r := rand.New(rand.NewSource(int64(n)))
		sets := []*fw.RuleSet{
			Generate(r, GenOptions{Rules: n}),
			Generate(r, GenOptions{Rules: n}),
			Generate(r, GenOptions{Rules: n}),
		}
		for i, rs := range sets {
			vr, err := VerifyCompiled(rs, VerifyOptions{})
			if err != nil {
				t.Fatalf("rules %d set %d: verify: %v", n, i, err)
			}
			fmt.Fprintf(&b, "rules %d set %d verify regions=%d ok=%v\n", n, i, vr.Regions, vr.OK())
			for _, f := range ExactLint(rs, fw.LintOptions{DepthWarn: 8}) {
				fmt.Fprintf(&b, "rules %d set %d lint %v rule=%d by=%d covering=%v depth=%d\n",
					n, i, f.Kind, f.Rule, f.By, f.Covering, f.Depth)
			}
		}
		pairs := []struct {
			name string
			a, b *fw.RuleSet
		}{
			{"set0->set1", sets[0], sets[1]},
			{"set1->set2", sets[1], sets[2]},
			{"set2->set0", sets[2], sets[0]},
			{"set0->set0", sets[0], sets[0]},
			{"set0->swap", sets[0], swapAdjacent(sets[0], n/2)},
		}
		for _, p := range pairs {
			for _, strict := range []bool{false, true} {
				res, err := Diff(p.a, p.b, DiffOptions{StrictIndex: strict})
				if err != nil {
					t.Fatalf("rules %d %s: diff: %v", n, p.name, err)
				}
				fmt.Fprintf(&b, "rules %d diff %s strict=%v equivalent=%v changed_regions=%d\n",
					n, p.name, strict, res.Equivalent, res.ChangedRegions)
				for c := RegionClass(0); c < NumRegionClasses; c++ {
					fmt.Fprintf(&b, "  %v %s\n", c, res.ByClass[c])
				}
				fmt.Fprintf(&b, "  changed %s redecided %s total %s\n",
					res.ChangedPackets, res.RedecidedPackets, res.TotalPackets)
				for _, wd := range res.Witnesses {
					fmt.Fprintf(&b, "  witness %s\n", wd)
				}
			}
		}
	}
	return b.String()
}

// TestSemOutputsGolden pins every output of VerifyCompiled, Diff and
// ExactLint on seeded Generate sets of 24, 64 and 130 rules, so a
// change to the walks' internals cannot change a region count, a
// packet count, a witness or a finding.
func TestSemOutputsGolden(t *testing.T) {
	got := renderSemOutputs(t)
	path := filepath.Join("testdata", "sem_golden.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
