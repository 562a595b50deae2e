package hw

import (
	"fmt"
	"sort"

	"repro/internal/lattice"
)

// Factory constructs a machine environment over the given lattice and
// configuration. Factories that model no cache hierarchy (e.g. "flat")
// may ignore cfg.
type Factory func(lat lattice.Lattice, cfg Config) Env

// designs maps hardware-design names to constructors; the CLI, the
// experiments and the benchmarks all resolve hardware through it.
// "unpartitioned" and "lock" are aliases the CLI has always accepted.
var designs = map[string]Factory{
	"flat":          func(lat lattice.Lattice, cfg Config) Env { return NewFlat(lat, 2) },
	"nopar":         func(lat lattice.Lattice, cfg Config) Env { return NewUnpartitioned(lat, cfg) },
	"unpartitioned": func(lat lattice.Lattice, cfg Config) Env { return NewUnpartitioned(lat, cfg) },
	"nofill":        func(lat lattice.Lattice, cfg Config) Env { return NewNoFill(lat, cfg) },
	"partitioned":   func(lat lattice.Lattice, cfg Config) Env { return NewPartitioned(lat, cfg) },
	"flush":         func(lat lattice.Lattice, cfg Config) Env { return NewFlushOnHigh(lat, cfg) },
	"lockcache":     func(lat lattice.Lattice, cfg Config) Env { return NewLockProtect(lat, cfg) },
	"lock":          func(lat lattice.Lattice, cfg Config) Env { return NewLockProtect(lat, cfg) },
}

// NewEnv constructs a named environment. The empty name selects
// "partitioned", the paper's secure design.
func NewEnv(name string, lat lattice.Lattice, cfg Config) (Env, error) {
	if name == "" {
		name = "partitioned"
	}
	f, ok := designs[name]
	if !ok {
		return nil, fmt.Errorf("hw: unknown hardware %q (want one of %v)", name, EnvNames())
	}
	return f(lat, cfg), nil
}

// MustEnv is NewEnv, panicking on unknown names; for static name sets.
func MustEnv(name string, lat lattice.Lattice, cfg Config) Env {
	env, err := NewEnv(name, lat, cfg)
	if err != nil {
		panic(err)
	}
	return env
}

// EnvNames lists the design names, aliases included, sorted.
func EnvNames() []string {
	names := make([]string, 0, len(designs))
	for n := range designs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
