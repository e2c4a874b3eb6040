package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run([]string{"figure9"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v", err)
	}
}

func TestRunRequiresExactlyOneArgument(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run([]string{"fig2", "fig3a"}); err == nil {
		t.Error("two arguments accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-bogus", "fig2"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunQuickAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if err := run([]string{"-quick", "-duration", "500ms", "ablations"}); err != nil {
		t.Fatalf("run ablations: %v", err)
	}
}

func TestExplainByteIdenticalAcrossParallel(t *testing.T) {
	argsAt := func(workers string) []string {
		return []string{"-device", "efw", "-depth", "64", "-parallel", workers}
	}
	var a, b bytes.Buffer
	if err := runExplain(&a, argsAt("1")); err != nil {
		t.Fatal(err)
	}
	if err := runExplain(&b, argsAt("8")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("explain output differs across -parallel:\n-parallel 1:\n%s\n-parallel 8:\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{"rule 64", "traversing 64 rule(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainSubcommandDispatch(t *testing.T) {
	if err := run([]string{"explain", "-bogus"}); err == nil {
		t.Error("explain accepted unknown flag")
	}
	if err := run([]string{"explain", "-device", "warp-drive"}); err == nil || !strings.Contains(err.Error(), "unknown device") {
		t.Errorf("err = %v", err)
	}
}

// TestRunRejectsObserveFlagsItCannotHonor: a family that writes no
// traces or profiles fails loudly instead of exiting 0 with nothing
// written, and all names the first such family.
func TestRunRejectsObserveFlagsItCannotHonor(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ flag, exp string }{
		{"-trace-out", "fig3b"},
		{"-profile-out", "stateflood"},
		{"-profile-out", "report"},
		{"-trace-out", "all"},
	} {
		err := run([]string{"-quick", tc.flag, dir, tc.exp})
		want := tc.exp
		if tc.exp == "all" {
			want = "fig3b"
		}
		if err == nil || !strings.HasPrefix(err.Error(), want+" writes no") {
			t.Errorf("%s %s: err = %v, want one naming %s", tc.flag, tc.exp, err, want)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rejected runs wrote %d entries", len(entries))
	}
}

// TestTimelineWritesProfiles: -profile-out reaches the timeline runs.
func TestTimelineWritesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	if err := run([]string{"-quick", "-duration", "250ms", "-parallel", "1", "-profile-out", dir, "timeline"}); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"standard_nic", "adf"} {
		for _, ext := range []string{".cost.pprof", ".cost.folded", ".kernel.pprof", ".kernel.folded"} {
			if _, err := os.Stat(filepath.Join(dir, "timeline", dev+ext)); err != nil {
				t.Errorf("missing profile: %v", err)
			}
		}
	}
}
