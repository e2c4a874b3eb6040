package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"barbican/internal/core"
	"barbican/internal/obs"
	"barbican/internal/obs/profile"
)

// runObservedBandwidth runs a bandwidth scenario with the
// observability cfg selects (see Config.observe) and writes its
// artifacts under <dir>/<exp>/<label>.*, plus the per-rule attribution
// next to the telemetry. Without an artifact directory it is a plain
// core.RunBandwidth. Profiled points carry their merged cost profile
// (CostProfile) back to the caller for per-experiment aggregation.
func runObservedBandwidth(cfg Config, exp, label string, s core.Scenario) (core.BandwidthPoint, error) {
	p, inst, err := core.RunBandwidth(s, cfg.observe())
	if err != nil || inst == nil {
		return p, err
	}
	if err := cfg.writeRunArtifacts(inst, exp, label); err != nil {
		return p, err
	}
	if cfg.MetricsDir != "" && p.Attribution != nil {
		if err := WriteRuleAttribution(filepath.Join(cfg.MetricsDir, exp), label, p.Attribution); err != nil {
			return p, fmt.Errorf("%s/%s: %w", exp, label, err)
		}
	}
	return p, nil
}

// writeRunArtifacts writes one observed run's artifacts as
// <dir>/<exp>/<label>.* for each artifact directory cfg sets.
func (cfg Config) writeRunArtifacts(inst *core.Instrumentation, exp, label string) error {
	sub := func(dir string) string {
		if dir == "" {
			return ""
		}
		return filepath.Join(dir, exp)
	}
	if _, err := inst.WriteArtifacts(sub(cfg.MetricsDir), sub(cfg.TraceDir), sub(cfg.ProfileDir), label); err != nil {
		return fmt.Errorf("%s/%s: %w", exp, label, err)
	}
	return nil
}

// writeMergedCostProfile merges per-point cost profiles (in the order
// given, which callers keep in declaration order so the merged bytes
// are parallelism-independent) and writes them as
// <ProfileDir>/<exp>/<exp>.cost.{pprof,folded}. No-op without
// cfg.ProfileDir.
func writeMergedCostProfile(cfg Config, exp string, parts []*profile.Data) error {
	if cfg.ProfileDir == "" {
		return nil
	}
	merged := profile.NewData(profile.CostSampleTypes, "cost")
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			return fmt.Errorf("%s: merge cost profile: %w", exp, err)
		}
	}
	dir := filepath.Join(cfg.ProfileDir, exp)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, obs.SanitizeName(exp))
	if err := merged.WritePprofFile(base + ".cost.pprof"); err != nil {
		return err
	}
	return merged.WriteFoldedFile(base + ".cost.folded")
}

// WriteRuleAttribution writes a run's per-rule firewall breakdown as
// <dir>/<label>.rules.{csv,json}: one row per rule with hit count and
// the profile's predicted walk cost/latency at that rule's position,
// plus a final default-action row.
func WriteRuleAttribution(dir, label string, a *core.RuleAttribution) error {
	writeCSV := func(w io.Writer) error {
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"rule_index", "rule", "hits", "cost_units", "latency_us"}); err != nil {
			return err
		}
		for _, r := range a.Rules {
			err := cw.Write([]string{
				fmt.Sprintf("%d", r.Index), r.Text, fmt.Sprintf("%d", r.Hits),
				fmt.Sprintf("%g", r.CostUnits), fmt.Sprintf("%g", float64(r.Latency.Nanoseconds())/1e3),
			})
			if err != nil {
				return err
			}
		}
		err := cw.Write([]string{
			"default", fmt.Sprintf("default (%d rules walked)", len(a.Rules)),
			fmt.Sprintf("%d", a.DefaultHits),
			fmt.Sprintf("%g", a.DefaultCost), fmt.Sprintf("%g", float64(a.DefaultLatency.Nanoseconds())/1e3),
		})
		if err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	}
	writeJSON := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(a)
	}
	return writeArtifactPair(dir, label+".rules", writeCSV, writeJSON)
}

// WriteCSV writes the figure as long-form CSV: series,x,y,note.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", f.XLabel, f.YLabel, "note"}); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			err := cw.Write([]string{s.Label, fmt.Sprintf("%g", p.X), fmt.Sprintf("%g", p.Y), p.Note})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the figure as a machine-readable JSON document.
func (f *Figure) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// WriteCSV writes the table as CSV, header row first.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the table as a machine-readable JSON document.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// WriteFigureArtifacts writes <dir>/<name>.figure.{csv,json}.
func WriteFigureArtifacts(dir, name string, f *Figure) error {
	return writeArtifactPair(dir, name+".figure", f.WriteCSV, f.WriteJSON)
}

// WriteTableArtifacts writes <dir>/<name>.table.{csv,json}.
func WriteTableArtifacts(dir, name string, t *Table) error {
	return writeArtifactPair(dir, name+".table", t.WriteCSV, t.WriteJSON)
}

func writeArtifactPair(dir, base string, csvFn, jsonFn func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: artifacts dir: %w", err)
	}
	base = obs.SanitizeName(base)
	for _, out := range []struct {
		ext string
		fn  func(io.Writer) error
	}{{".csv", csvFn}, {".json", jsonFn}} {
		p := filepath.Join(dir, base+out.ext)
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		if err := out.fn(f); err != nil {
			f.Close()
			return fmt.Errorf("experiment: write %s: %w", p, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("experiment: close %s: %w", p, err)
		}
	}
	return nil
}
