package experiments

import "testing"

// TestRegistryHasAllBuiltins pins the experiment table: the harness's
// `all` and `-experiment list` read it, so a missing entry silently
// drops an experiment, and its order is the paper's presentation order.
func TestRegistryHasAllBuiltins(t *testing.T) {
	want := []string{
		"table1", "figure7", "table2", "figure8", "figure9",
		"leakage", "sessions", "certify",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("experiments = %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], name)
		}
	}
	for i, e := range All() {
		if e.Name != want[i] || e.Summary == "" || e.Run == nil {
			t.Errorf("All()[%d] = {%q, %q, run=%v}", i, e.Name, e.Summary, e.Run != nil)
		}
	}
}

func TestLookupFindsRegistered(t *testing.T) {
	e, ok := Lookup("figure7")
	if !ok || e.Name != "figure7" || e.Run == nil {
		t.Fatalf("Lookup(figure7) = %+v, %v", e, ok)
	}
	for _, gone := range []string{"no-such-experiment", "service", "network", "vmopt"} {
		if _, ok := Lookup(gone); ok {
			t.Errorf("Lookup(%q) must not resolve", gone)
		}
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
