package experiment

import (
	"fmt"
	"strings"
	"testing"
)

func genFor(id string) func(Options) Plan {
	return renderOnly(func(o Options) *FigureData {
		f := New(id, "title of "+id)
		f.Scalars["seed"] = float64(o.SeedOrDefault())
		return f
	})
}

// testRegistry registers a representative ID mix deliberately out of
// canonical order.
func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, e := range []Experiment{
		{ID: "S2", Family: "study", Tags: []string{"study", "access"}, Plan: genFor("S2")},
		{ID: "F10", Family: "figure", Tags: []string{"figure", "gcc"}, Plan: genFor("F10")},
		{ID: "F9b", Family: "figure", Tags: []string{"figure", "drilldown"}, Plan: genFor("F9b")},
		{ID: "A1", Family: "ablation", Tags: []string{"ablation"}, Plan: genFor("A1")},
		{ID: "F3", Family: "figure", Tags: []string{"figure", "delay"}, Title: "One-Way Delay", Plan: genFor("F3")},
		{ID: "F9a", Family: "figure", Tags: []string{"figure", "drilldown"}, Plan: genFor("F9a")},
		{ID: "M1", Family: "mitigation", Tags: []string{"mitigation"}, Plan: genFor("M1")},
		{ID: "X1", Family: "custom", Tags: []string{"custom"}, Plan: genFor("X1")},
	} {
		if err := r.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRegisterRejectsBadAndDuplicate(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Experiment{ID: "", Plan: genFor("")}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := r.Register(Experiment{ID: "F3"}); err == nil {
		t.Fatal("nil Plan accepted")
	}
	if err := r.Register(Experiment{ID: "F3", Plan: genFor("F3")}); err != nil {
		t.Fatal(err)
	}
	err := r.Register(Experiment{ID: "f3", Plan: genFor("f3")})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("case-insensitive duplicate not rejected: %v", err)
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	r := testRegistry(t)
	for _, id := range []string{"F9A", "f9a", " f9a "} {
		e, ok := r.Lookup(id)
		if !ok || e.ID != "F9a" {
			t.Fatalf("Lookup(%q) = %v %v", id, e.ID, ok)
		}
	}
	if _, ok := r.Lookup("F99"); ok {
		t.Fatal("unknown ID resolved")
	}
}

func TestAllCanonicalOrder(t *testing.T) {
	r := testRegistry(t)
	want := []string{"F3", "F9a", "F9b", "F10", "M1", "A1", "S2", "X1"}
	got := r.IDs()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("canonical order = %v, want %v", got, want)
	}
}

func TestSelectEmptyReturnsAll(t *testing.T) {
	r := testRegistry(t)
	es, err := r.Select(Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 8 || es[0].ID != "F3" {
		t.Fatalf("empty selection = %v", es)
	}
}

func TestSelectByID(t *testing.T) {
	r := testRegistry(t)
	es, err := r.Select(Selection{IDs: []string{"f10", " M1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 || es[0].ID != "F10" || es[1].ID != "M1" {
		t.Fatalf("ID selection = %v", es)
	}
}

func TestSelectUnknownIDErrorListsValid(t *testing.T) {
	r := testRegistry(t)
	_, err := r.Select(Selection{IDs: []string{"F99"}})
	if err == nil {
		t.Fatal("unknown ID selected without error")
	}
	for _, want := range []string{"F99", "F3", "F9a", "S2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestSelectByTagAnyOfCaseInsensitive(t *testing.T) {
	r := testRegistry(t)
	es, err := r.Select(Selection{Tags: []string{"DRILLDOWN", "custom"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 3 || es[0].ID != "F9a" || es[1].ID != "F9b" || es[2].ID != "X1" {
		t.Fatalf("tag selection = %v", es)
	}
}

func TestSelectByRegex(t *testing.T) {
	r := testRegistry(t)
	es, err := r.Select(Selection{Regex: "^f9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 || es[0].ID != "F9a" || es[1].ID != "F9b" {
		t.Fatalf("regex selection = %v", es)
	}
	// Titles match too.
	es, err = r.Select(Selection{Regex: "one-way"})
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].ID != "F3" {
		t.Fatalf("title regex selection = %v", es)
	}
	if _, err = r.Select(Selection{Regex: "("}); err == nil {
		t.Fatal("bad regex accepted")
	}
}

func TestSelectFiltersIntersect(t *testing.T) {
	r := testRegistry(t)
	es, err := r.Select(Selection{IDs: []string{"F9a", "F10", "M1"}, Tags: []string{"figure"}, Regex: "^F"})
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 || es[0].ID != "F9a" || es[1].ID != "F10" {
		t.Fatalf("intersection = %v", es)
	}
}
