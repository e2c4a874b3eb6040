package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"barbican/internal/fw"
	"barbican/internal/fw/sem"
)

// Policy-verify corpus shape: corpusSets generated sets of corpusRules
// rules each.
const (
	corpusSets   = 128
	corpusRules  = 64
	setupRepeats = 5
)

// genCorpus generates the seed's rule-set corpus.
func genCorpus(seed int64) []*fw.RuleSet {
	r := rand.New(rand.NewSource(seed))
	sets := make([]*fw.RuleSet, corpusSets)
	for i := range sets {
		sets[i] = sem.Generate(r, sem.GenOptions{Rules: corpusRules})
	}
	return sets
}

// verifyEpisode is one pass over the corpus: for each set, the
// compiled-classifier proof, the diff against the previous set (the
// first against the last) and the exact lint.
type verifyEpisode struct {
	setup, window  span
	sets           uint64
	mallocs, bytes uint64
	// perSet is each set's host time for its three calls.
	perSet []span
	// heapLive is the live heap with the corpus in it (see simEpisode).
	heapLive uint64
	// refSec is a reference second, timed around the pass.
	refSec   time.Duration
	gcCycles uint32
	gcCPU    float64
	out      outputs
	// Traced passes time each call into fw/sem and count its
	// allocations; regions is the proofs' region count.
	verify, diff, lint  time.Duration
	semMallocs, regions uint64
}

// runVerify generates the corpus for seed and verifies it once. With
// spans set, each call into fw/sem is timed and its allocations
// counted.
func runVerify(seed int64, spans bool) (*verifyEpisode, error) {
	ep := &verifyEpisode{out: outputs{}}
	// Generating the corpus takes milliseconds, so it is timed
	// setupRepeats times and the median kept.
	var corpus []*fw.RuleSet
	setups := make([]span, setupRepeats)
	for i := range setups {
		t0 := now()
		corpus = genCorpus(seed)
		setups[i] = t0.to(now())
	}
	slices.SortFunc(setups, func(a, b span) int { return cmp.Compare(a.cpu, b.cpu) })
	ep.setup = setups[setupRepeats/2]

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, bytes0, numGC0, gcCPU0 := ms.Mallocs, ms.TotalAlloc, ms.NumGC, gcCPU()
	// span times one call into fw/sem when spans is set, charging its host
	// time to *d and its allocations to semMallocs.
	span := func(d *time.Duration, call func() error) error {
		if !spans {
			return call()
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		s := time.Now()
		err := call()
		*d += time.Since(s)
		runtime.ReadMemStats(&ms)
		ep.semMallocs += ms.Mallocs - m0
		return err
	}

	begin := now()
	for i, rs := range corpus {
		prev := corpus[(i+len(corpus)-1)%len(corpus)]
		setStart := now()
		var (
			vr       *sem.VerifyResult
			dr       *sem.DiffResult
			findings []fw.Finding
		)
		if err := span(&ep.verify, func() (err error) {
			vr, err = sem.VerifyCompiled(rs, sem.VerifyOptions{})
			return err
		}); err != nil {
			return nil, fmt.Errorf("set %d: verify: %w", i, err)
		}
		if err := span(&ep.diff, func() (err error) {
			dr, err = sem.Diff(prev, rs, sem.DiffOptions{})
			return err
		}); err != nil {
			return nil, fmt.Errorf("set %d: diff: %w", i, err)
		}
		_ = span(&ep.lint, func() error {
			findings = sem.ExactLint(rs, fw.LintOptions{})
			return nil
		})
		ep.perSet = append(ep.perSet, setStart.to(now()))
		ep.regions += vr.Regions
		k := fmt.Sprintf("set%03d.", i)
		ep.out[k+"proof_ok"] = b2u(vr.OK())
		ep.out[k+"regions"] = vr.Regions
		ep.out[k+"changed_regions"] = dr.ChangedRegions
		ep.out[k+"findings"] = uint64(len(findings))
	}
	ep.window = begin.to(now())
	ep.sets = uint64(len(corpus))
	runtime.ReadMemStats(&ms)
	ep.mallocs, ep.bytes = ms.Mallocs-mallocs0, ms.TotalAlloc-bytes0
	ep.gcCycles, ep.gcCPU = ms.NumGC-numGC0, gcCPU()-gcCPU0

	ep.heapLive = liveHeap()
	runtime.KeepAlive(corpus)
	return ep, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
