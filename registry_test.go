package athena

// Registry completeness and compatibility: the registry is the single
// source of truth for the 23 evaluation artifacts, and every legacy
// exported driver resolves to its registry entry; the drivers row of
// TestRegistryDigestsPinned holds each driver to the figure the sweep
// renders.

import (
	"strings"
	"testing"

	"athena/internal/experiment"
)

// allIDs is the canonical registry contents, in canonical order.
var allIDs = []string{
	"F3", "F4", "F5", "F6", "F7", "F8", "F9a", "F9b", "F10",
	"M1", "M2", "M3", "M4",
	"A1", "A2", "A3", "A4",
	"S1", "S2", "S3", "S4", "S8", "S9",
}

// legacyDrivers maps every exported compatibility wrapper to its ID.
var legacyDrivers = map[string]func(Options) *FigureData{
	"F3": Fig3, "F4": Fig4, "F5": Fig5, "F6": Fig6, "F7": Fig7, "F8": Fig8,
	"F9a": Fig9a, "F9b": Fig9b, "F10": Fig10,
	"M1": M1, "M2": M2, "M3": M3, "M4": M4,
	"A1": A1, "A2": A2, "A3": A3, "A4": A4,
	"S1": S1PHYContexts, "S2": S2AccessNetworks, "S3": S3LearningCC, "S4": S4AppDiversity,
	"S8": S8MixedWorkloads, "S9": S9QoEScheduler,
}

func TestRegistryCompleteAndStable(t *testing.T) {
	// The driver registrations plus anything a test registered; the 23
	// built-ins must be present exactly once, in canonical order.
	var builtin []Experiment
	seen := map[string]bool{}
	for _, e := range experiment.All() {
		if seen[strings.ToLower(e.ID)] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[strings.ToLower(e.ID)] = true
		if _, ok := legacyDrivers[e.ID]; ok {
			builtin = append(builtin, e)
		}
	}
	if len(builtin) != len(allIDs) {
		t.Fatalf("registered built-ins = %d, want %d", len(builtin), len(allIDs))
	}
	for i, e := range builtin {
		if e.ID != allIDs[i] {
			t.Fatalf("canonical order broken at %d: got %s want %s", i, e.ID, allIDs[i])
		}
		if e.Title == "" || e.Family == "" || e.Description == "" || e.Plan == nil {
			t.Fatalf("%s metadata incomplete: %+v", e.ID, e)
		}
		if !e.HasTag(e.Family) {
			t.Fatalf("%s does not carry its family %q as a tag", e.ID, e.Family)
		}
	}
	// Select with empty filters returns the same complete stable set.
	sel, err := experiment.Select(experiment.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) < len(allIDs) {
		t.Fatalf("empty Select returned %d experiments", len(sel))
	}
	// One smoke experiment per built-in family, so the CI sweep covers
	// every family.
	smoke, err := experiment.Select(experiment.Selection{Tags: []string{"smoke"}})
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]int{}
	for _, e := range smoke {
		families[e.Family]++
	}
	for _, fam := range []string{"figure", "mitigation", "ablation", "study"} {
		if families[fam] != 1 {
			t.Fatalf("smoke tag covers family %q %d times, want exactly 1 (%v)", fam, families[fam], smoke)
		}
	}
}

func TestEveryLegacyDriverResolvesToRegistryEntry(t *testing.T) {
	for id := range legacyDrivers {
		if _, ok := experiment.Lookup(id); !ok {
			t.Fatalf("%s not registered", id)
		}
		// Case-insensitive resolution (the -only f3 satellite).
		if low, ok := experiment.Lookup(strings.ToLower(id)); !ok || low.ID != id {
			t.Fatalf("case-insensitive lookup of %s failed", id)
		}
	}
}

func TestSelectUnknownIDListsValidIDs(t *testing.T) {
	_, err := experiment.Select(experiment.Selection{IDs: []string{"F99"}})
	if err == nil {
		t.Fatal("unknown ID must be an error, not an empty (exit-0) run")
	}
	for _, want := range append([]string{"F99"}, allIDs...) {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list %q", err, want)
		}
	}
}
