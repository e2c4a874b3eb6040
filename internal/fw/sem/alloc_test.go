//go:build !framepoison

package sem

import (
	"math/rand"
	"testing"
)

// TestDiffAllocationCeiling guards the walks' allocation-free inner
// loops. Diff of the seed-1 pair of Generate 64-rule sets expands
// about 2,100 nodes over about 10,000 runs of segments. It measures
// 204 allocations per call: the decomposition tables, the doubling
// steps of the intern tables and node slice, and the result. (Before
// the intern tables, the same call allocated 245,048 times, on every
// segment.) The ceiling of 600 leaves room for a few more growth steps
// but fails long before one allocation per expansion comes back.
func TestDiffAllocationCeiling(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := Generate(r, GenOptions{Rules: 64})
	b := Generate(r, GenOptions{Rules: 64})
	const ceiling = 600
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Diff(a, b, DiffOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("Diff allocates %.0f times per call, ceiling %d", allocs, ceiling)
	}
}
