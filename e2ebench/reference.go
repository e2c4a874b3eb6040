package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// outputs are a run's simulated (or proven) results by name. They
// depend only on the workload and seed, never on the host, so a
// changed value is a wrong result, not a faster one.
type outputs map[string]uint64

// referenceJSON holds committed outputs: workload → seed → outputs.
//
//go:embed reference.json
var referenceJSON []byte

func loadReferences() (map[string]map[string]outputs, error) {
	var refs map[string]map[string]outputs
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// referenceFor returns the committed outputs for workload and seed, or
// nil when none are committed.
func referenceFor(refs map[string]map[string]outputs, workload string, seed int64) outputs {
	return refs[workload][strconv.FormatInt(seed, 10)]
}

// mismatches lists, sorted, the keys whose value in got differs from
// want, or that got lacks. Keys only in got are not compared, so a
// counter added to the program later does not fail older references.
func mismatches(want, got outputs) []string {
	var bad []string
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}
