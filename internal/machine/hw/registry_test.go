package hw

import (
	"strings"
	"testing"

	"repro/internal/lattice"
)

func TestRegistryBuiltins(t *testing.T) {
	lat := lattice.TwoPoint()
	for _, tc := range []struct {
		name     string
		wantName string
	}{
		{"flat", "flat"},
		{"nopar", "unpartitioned"},
		{"unpartitioned", "unpartitioned"},
		{"nofill", "nofill"},
		{"partitioned", "partitioned"},
		{"flush", "flush-on-high"},
		{"lockcache", "lock-protect"},
		{"lock", "lock-protect"},
		{"", "partitioned"}, // empty name defaults to the paper's design
	} {
		env, err := NewEnv(tc.name, lat, Table1Config())
		if err != nil {
			t.Errorf("NewEnv(%q) error: %v", tc.name, err)
			continue
		}
		if env.Name() != tc.wantName {
			t.Errorf("NewEnv(%q).Name() = %q, want %q", tc.name, env.Name(), tc.wantName)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	_, err := NewEnv("bogus", lattice.TwoPoint(), Table1Config())
	if err == nil {
		t.Fatal("NewEnv(bogus) succeeded")
	}
	if !strings.Contains(err.Error(), "unknown hardware") {
		t.Errorf("error %q should name the failure", err)
	}
	// The error lists the valid names so the CLI message is actionable.
	if !strings.Contains(err.Error(), "partitioned") {
		t.Errorf("error %q should list valid names", err)
	}
}

func TestRegistryEnvNamesSorted(t *testing.T) {
	names := EnvNames()
	if len(names) < 6 {
		t.Fatalf("EnvNames = %v, expected all builtins", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("EnvNames not sorted: %v", names)
		}
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"flat", "nopar", "nofill", "partitioned", "flush", "lockcache"} {
		if !seen[want] {
			t.Errorf("EnvNames missing %q: %v", want, names)
		}
	}
}

func TestMustEnvPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustEnv(bogus) did not panic")
		}
	}()
	MustEnv("bogus-env", lattice.TwoPoint(), Config{})
}

func TestStatsAddAndRates(t *testing.T) {
	a := Stats{L1DHits: 3, L1DMisses: 1, DTLBHits: 8, BPHits: 4, BPMisses: 4}
	b := Stats{L1DHits: 1, L1DMisses: 1, DTLBMisses: 2, BPHits: 2}
	s := a.Add(b)
	if s.L1DHits != 4 || s.L1DMisses != 2 || s.DTLBHits != 8 || s.DTLBMisses != 2 {
		t.Errorf("Add = %+v", s)
	}
	if got := s.L1DHitRate(); got != 4.0/6 {
		t.Errorf("L1DHitRate = %f", got)
	}
	if got := s.DTLBHitRate(); got != 0.8 {
		t.Errorf("DTLBHitRate = %f", got)
	}
	if got := s.BPHitRate(); got != 6.0/10 {
		t.Errorf("BPHitRate = %f", got)
	}
	var zero Stats
	if zero.L1DHitRate() != 0 || zero.L2IHitRate() != 0 || zero.ITLBHitRate() != 0 {
		t.Error("zero stats should report 0 hit rates, not NaN")
	}
}
