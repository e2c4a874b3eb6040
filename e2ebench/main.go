// Command e2ebench is barbican's end-to-end benchmark. It runs one
// workload — two whole-testbed simulations and one exact policy-proof
// corpus — for a host-time budget, checks every run's outputs against
// committed references, and prints the end-to-end metrics or, with
// --trace 1, the per-layer breakdown. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload efw-flood --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minEpisodes is the fewest episodes a run measures, however short its
// budget.
const minEpisodes = 3

// allocSampleEvery is the traced run's allocation sampling rate: one
// handler call in this many is bracketed by allocator reads.
const allocSampleEvery = 64

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check tallies operations and their failures against the expected
// outputs: the committed reference for the seed, or, for a seed
// without one, the run's first episode.
type check struct {
	want      outputs
	attempted int
	failed    int
	problems  []string
}

// op records one operation with the problems found in it.
func (c *check) op(problems ...string) {
	c.attempted++
	if len(problems) > 0 {
		c.failed++
		if len(c.problems) < 8 {
			c.problems = append(c.problems, strings.Join(problems, "; "))
		}
	}
}

// diff compares got with the expected outputs restricted to keys with
// the given prefix, adopting got as the expectation when there is none.
func (c *check) diff(got outputs, prefix string) []string {
	if c.want == nil {
		c.want = got
	}
	want := c.want
	if prefix != "" {
		want = outputs{}
		for k, v := range c.want {
			if strings.HasPrefix(k, prefix) {
				want[k] = v
			}
		}
	}
	var out []string
	for _, k := range mismatches(want, got) {
		out = append(out, fmt.Sprintf("%s=%d, want %d", k, got[k], want[k]))
	}
	return out
}

func main() {
	// The simulator is single-threaded. With one P the collector runs
	// on the same thread, so the process's CPU time is the work done:
	// with two, idle Ps run mark workers whose CPU time depends on how
	// busy the second core is, not on the program.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: efw-flood, stateful-bulk or policy-verify")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "host-time budget of the run")
	trace := fs.Int("trace", 0, "1 prints the traced per-layer metrics instead of the end-to-end ones")
	record := fs.Bool("record", false, "print one episode's outputs as a reference.json entry and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "e2ebench: bad arguments")
		fs.Usage()
		return 2
	}
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))

	w, isSim := simWorkloads[*workload]
	if *record {
		out, err := recordOutputs(*workload, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]map[string]outputs{*workload: {fmt.Sprint(*seed): out}})
		return 0
	}
	c := &check{want: referenceFor(refs, *workload, *seed)}
	var r report
	switch {
	case isSim:
		err = runSim(*workload, w, *seed, budget, *trace == 1, c, &r)
	case *workload == "policy-verify":
		err = runVerifyWorkload(*seed, budget, *trace == 1, c, &r)
	default:
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	for _, line := range r.lines {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed\n", c.attempted, c.failed)
	for _, p := range c.problems {
		fmt.Fprintln(stdout, "  failed:", p)
	}
	line, err := json.Marshal(result{
		Correct:   c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// recordOutputs runs one untraced episode and returns its outputs.
func recordOutputs(workload string, seed int64) (outputs, error) {
	if w, ok := simWorkloads[workload]; ok {
		ep, err := w.run(seed, untraced)
		if err != nil {
			return nil, err
		}
		return ep.out, nil
	}
	if workload == "policy-verify" {
		ep, err := runVerify(seed, false)
		if err != nil {
			return nil, err
		}
		return ep.out, nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// repeat runs episodes until budget has passed and at least
// minEpisodes have run.
func repeat(budget time.Duration, episode func() error) error {
	start := time.Now()
	for n := 0; n < minEpisodes || time.Since(start) < budget; n++ {
		if err := episode(); err != nil {
			return err
		}
	}
	return nil
}

// stamp is a point in host time: the wall clock and the CPU time the
// process has used. On a shared virtual machine the hypervisor can take
// the CPU away for whole seconds; that steal runs the wall clock but
// not the CPU clock, so the gated rates and set-up times start from CPU
// time (and are then put in reference seconds, see calib.go).
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

// span is the host time between two stamps.
type span struct{ wall, cpu time.Duration }

func now() stamp {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return stamp{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func (s stamp) to(e stamp) span { return span{wall: e.wall.Sub(s.wall), cpu: e.cpu - s.cpu} }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf returns the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// medianIndex returns the index of a median element of xs (the lower
// median for an even count).
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(idx)-1)/2]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mib = 1 << 20

// report collects a run's metrics for the JSON result and the table
// printed before it.
type report struct {
	metrics map[string]metric
	lines   []string
}

func (r *report) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("  %-28s %14.6g %s", name, v, unit))
}

// note adds a table line that is not a metric.
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}
