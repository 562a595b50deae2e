package experiments

import (
	"sort"
	"testing"
)

// TestRegistryHasAllBuiltins pins the registered set: the harness's
// `-experiment list` is derived from it, so a missing registration
// silently drops an experiment from `all`.
func TestRegistryHasAllBuiltins(t *testing.T) {
	want := []string{
		"table1", "figure7", "table2", "figure8", "figure9",
		"leakage", "service", "network", "sessions", "vmopt",
		"certify",
	}
	got := Names()
	sorted := append([]string(nil), got...)
	sort.Strings(sorted)
	wantSorted := append([]string(nil), want...)
	sort.Strings(wantSorted)
	if len(sorted) != len(wantSorted) {
		t.Fatalf("registered = %v, want %v", got, want)
	}
	for i := range sorted {
		if sorted[i] != wantSorted[i] {
			t.Fatalf("registered = %v, want %v", got, want)
		}
	}
	// Presentation order is the paper's order, not registration order.
	for i, name := range want {
		if got[i] != name {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], name)
		}
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	if err := Register(Experiment{Name: "", Run: func(RunOptions) (*Report, error) { return nil, nil }}); err == nil {
		t.Error("empty name must be rejected")
	}
	if err := Register(Experiment{Name: "x"}); err == nil {
		t.Error("nil runner must be rejected")
	}
	if err := Register(Experiment{Name: "table1", Run: func(RunOptions) (*Report, error) { return nil, nil }}); err == nil {
		t.Error("duplicate name must be rejected")
	}
}

func TestLookupFindsRegistered(t *testing.T) {
	e, ok := Lookup("figure7")
	if !ok || e.Name != "figure7" || e.Run == nil {
		t.Fatalf("Lookup(figure7) = %+v, %v", e, ok)
	}
	if _, ok := Lookup("no-such-experiment"); ok {
		t.Error("unknown name must not resolve")
	}
}

// TestRegisteredTextOnlyContract: table1 is the one text-only report;
// every other experiment must expose CSV data for -format json/csv.
func TestRegisteredTextOnlyContract(t *testing.T) {
	e, ok := Lookup("table1")
	if !ok {
		t.Fatal("table1 missing")
	}
	rep, err := e.Run(RunOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Data != nil {
		t.Error("table1 must be text-only")
	}
	if rep.Text == "" {
		t.Error("table1 must render text")
	}
}
