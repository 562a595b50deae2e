package certify

import (
	"fmt"

	"repro/internal/apps/login"
	"repro/internal/apps/rsa"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/progen"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// Workload is a program plus a secret space: Set installs secret i
// into a machine memory before a run, and Inputs (when non-nil) gives
// the same secret as wire-schema scalar inputs so the workload can
// also be driven through the HTTP transport. The case-study apps set
// arrays (credential tables, message blocks), which the wire schema
// cannot carry, so they bind in-process only.
type Workload struct {
	// Name identifies the workload in reports.
	Name string
	// Prog and Res are the type-checked program; Lat its lattice.
	Prog *ast.Program
	Res  *types.Result
	Lat  lattice.Lattice
	// N is the secret-space size.
	N int
	// Set installs secret index i into a run's initial memory.
	Set func(secret int, m *mem.Memory)
	// Inputs, when non-nil, maps secret index i to wire inputs — the
	// workload is then certifiable through the HTTP binding too.
	Inputs func(secret int) map[string]int64
	// HW, when non-nil, overrides the hardware geometry (default
	// Table1).
	HW func() hw.Config
	// MaxSteps bounds each probe run; 0 takes the target default.
	MaxSteps int
}

// Config returns the workload's hardware geometry.
func (w *Workload) Config() hw.Config {
	if w.HW != nil {
		return w.HW()
	}
	return hw.Table1Config()
}

// maxSteps bounds one probe run: the workload's MaxSteps, or a
// default generous for every built-in workload.
func (w *Workload) maxSteps() int {
	if w.MaxSteps == 0 {
		return 10_000_000
	}
	return w.MaxSteps
}

// LoginWorkload builds the §8.3 login case study as a certification
// workload. The secret is the position of the probed user's credential
// in the table (the rest of the table is decoys): the unmitigated
// early-exit username scan makes response time grow with that
// position, so an attacker distinguishes all n positions — the
// Bortz–Boneh channel in its sharpest form. Predictions are sampled
// over the worst case (§8.2) so the mitigated workload pads every
// probe to the same time.
func LoginWorkload(n int) (*Workload, error) {
	if n < 2 {
		return nil, fmt.Errorf("certify: login workload needs ≥ 2 secrets, got %d", n)
	}
	lat := lattice.TwoPoint()
	cfg := login.Config{TableSize: n, WorkFactor: 48, WorkTableSize: 64}
	app, err := login.Build(cfg, lat)
	if err != nil {
		return nil, err
	}
	attempt := login.Attempt{User: "probed-user", Pass: "guess"}
	// Table for secret i: decoys everywhere except the probed user's
	// credential at position i.
	tables := make([][]login.Credential, n)
	for i := range tables {
		creds := make([]login.Credential, n)
		for j := range creds {
			creds[j] = login.Credential{User: fmt.Sprintf("decoy-%03d", j), Pass: fmt.Sprintf("dk-%03d", j)}
		}
		creds[i] = login.Credential{User: attempt.User, Pass: "real-password"}
		tables[i] = creds
	}
	// Worst-case prediction sampling: the probed user at the LAST
	// position (full scan + full verification) plus an unknown user
	// (full scan, no verification).
	newEnv := func() hw.Env { return hw.NewPartitioned(lat, hw.Table1Config()) }
	p1, p2, err := app.SamplePredictions(newEnv, tables[n-1], []login.Attempt{attempt, {User: "ghost", Pass: "x"}})
	if err != nil {
		return nil, err
	}
	return &Workload{
		Name: "login",
		Prog: app.Prog,
		Res:  app.Res,
		Lat:  lat,
		N:    n,
		Set: func(secret int, m *mem.Memory) {
			app.Setup(m, tables[secret], attempt, p1, p2)
		},
	}, nil
}

// DefaultRSAKeys is the certification key set: eight keys of varying
// Hamming weight and bit length, so unmitigated square-and-multiply
// time separates them (Kocher's channel).
func DefaultRSAKeys() []int64 {
	return []int64{0x11, 0x7F, 0xFF1, 0xABCDE, 0xFFFFF, 0x100001, 0x155555, 0x1FFFFF}
}

// RSAWorkload builds the RSA decryption case study with the given
// secret key set (DefaultRSAKeys when nil). The secret is which key
// decrypts; the message is fixed and public. Prediction is sampled
// over the heaviest key (§8.2).
func RSAWorkload(keys []int64) (*Workload, error) {
	if keys == nil {
		keys = DefaultRSAKeys()
	}
	if len(keys) < 2 {
		return nil, fmt.Errorf("certify: rsa workload needs ≥ 2 keys, got %d", len(keys))
	}
	lat := lattice.TwoPoint()
	app, err := rsa.Build(rsa.Config{MaxBlocks: 1, Modulus: 1000003}, rsa.LanguageLevel, lat)
	if err != nil {
		return nil, err
	}
	msg := rsa.Message(1, 1)
	newEnv := func() hw.Env { return hw.NewPartitioned(lat, hw.Table1Config()) }
	pred, err := app.SamplePrediction(newEnv, keys, [][]int64{msg})
	if err != nil {
		return nil, err
	}
	return &Workload{
		Name: "rsa",
		Prog: app.Prog,
		Res:  app.Res,
		Lat:  lat,
		N:    len(keys),
		Set: func(secret int, m *mem.Memory) {
			app.Setup(m, keys[secret], msg, pred)
		},
	}, nil
}

// sleepSrc is the scalars-only wire workload: a mitigated sleep on
// the secret, then a public reply — the same shape the sessions
// experiment serves. Scalars-only means the HTTP binding can carry
// its secret through wire inputs.
const sleepSrc = `
var h : H;
var reply : L;
mitigate (1, H) [L,L] {
    sleep((h %% %d) * 4) [H,H];
}
reply := 1;
`

// SleepWorkload builds the mitigated-sleep wire workload with n
// secrets h = 0..n-1. Unmitigated it leaks the secret exactly (the
// sleep is 4·h cycles); mitigated, padding quantizes every probe.
// This is the only built-in workload certifiable through all three
// bindings.
func SleepWorkload(n int) (*Workload, error) {
	if n < 2 {
		return nil, fmt.Errorf("certify: sleep workload needs ≥ 2 secrets, got %d", n)
	}
	lat := lattice.TwoPoint()
	src := fmt.Sprintf(sleepSrc, n)
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	res, err := types.Check(prog, lat)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Name: "sleep",
		Prog: prog,
		Res:  res,
		Lat:  lat,
		N:    n,
		Set: func(secret int, m *mem.Memory) {
			m.Set("h", int64(secret))
		},
		Inputs: func(secret int) map[string]int64 {
			return map[string]int64{"h": int64(secret)}
		},
	}, nil
}

// ProgenWorkload builds a workload from a generated program: the
// secret is the value 0..n-1 of the named secret scalar. Programs and
// secret variables come from the checked-in corpus (see Corpus), whose
// regen tool selects seeds with a real unmitigated timing signal and
// mitigate coverage on every secret.
func ProgenWorkload(seed int64, secretVar string, n int) (*Workload, error) {
	if n < 2 {
		return nil, fmt.Errorf("certify: progen workload needs ≥ 2 secrets, got %d", n)
	}
	lat := lattice.TwoPoint()
	prog, res, _, err := progen.GenerateTyped(progenConfig(lat, seed), 50)
	if err != nil {
		return nil, fmt.Errorf("certify: progen seed %d: %w", seed, err)
	}
	if _, ok := res.VarLabel(secretVar); !ok {
		return nil, fmt.Errorf("certify: progen seed %d: no variable %q", seed, secretVar)
	}
	return &Workload{
		Name: fmt.Sprintf("progen-%d", seed),
		Prog: prog,
		Res:  res,
		Lat:  lat,
		N:    n,
		Set: func(secret int, m *mem.Memory) {
			m.Set(secretVar, int64(secret))
		},
		Inputs: func(secret int) map[string]int64 {
			return map[string]int64{secretVar: int64(secret)}
		},
	}, nil
}

// progenConfig is the generator configuration the corpus tool and
// ProgenWorkload must share: the corpus records seeds, and a seed only
// reproduces its program under identical generation parameters.
func progenConfig(lat lattice.Lattice, seed int64) progen.Config {
	return progen.Config{
		Lat:           lat,
		Seed:          seed,
		MaxDepth:      3,
		StmtsPerBlock: 4,
		AllowMitigate: true,
		AllowSleep:    true,
	}
}
