// Package experiments regenerates every table and figure of the
// paper's evaluation section (§8) on the simulated hardware:
//
//	Table 1  — machine environment parameters
//	Figure 7 — login time across attempts, with and without mitigation
//	Table 2  — login time under {nopar, moff, mon} hardware/mitigation
//	Figure 8 — RSA decryption time for two keys, ± mitigation
//	Figure 9 — language-level vs system-level mitigation
//
// plus the §6–7 leakage-bound experiment (E6 in DESIGN.md) and the two
// §7 claims that reach the service: per-tenant leakage accounts (E7)
// and adversarial certification (E9). Every experiment is
// deterministic. Absolute cycle counts differ from the paper
// (different simulator); the claims that must reproduce are the
// qualitative shapes, which the experiment tests in this package's
// _test file assert.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/apps/login"
	"repro/internal/apps/rsa"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
)

// fig7Summary appends the qualitative check — all mitigated curves
// must coincide — to Figure 7's text rendering.
func fig7Summary(d *Figure7Data) string {
	allEqual := true
	for _, s := range d.Mitigated[1:] {
		for i := range s.Times {
			if s.Times[i] != d.Mitigated[0].Times[i] {
				allEqual = false
			}
		}
	}
	return fmt.Sprintf("mitigated curves coincide: %v\n", allEqual)
}

// HWOption names the three configurations of Table 2.
type HWOption int

const (
	// Nopar is commodity hardware without partitions or mitigation —
	// fast and insecure.
	Nopar HWOption = iota
	// Moff is secure partitioned hardware with mitigation off.
	Moff
	// Mon is secure partitioned hardware with mitigation on.
	Mon
)

func (o HWOption) String() string {
	switch o {
	case Nopar:
		return "nopar"
	case Moff:
		return "moff"
	case Mon:
		return "mon"
	}
	return fmt.Sprintf("HWOption(%d)", int(o))
}

func (o HWOption) env(lat lattice.Lattice) hw.Env {
	if o == Nopar {
		return hw.MustEnv("nopar", lat, hw.Table1Config())
	}
	return hw.MustEnv("partitioned", lat, hw.Table1Config())
}

func (o HWOption) mitigate() bool { return o == Mon }

// ---------------------------------------------------------------------------
// Table 1

// Table1 renders the machine-environment parameters actually used by
// the simulator, in the paper's Table 1 format.
func Table1() string {
	cfg := hw.Table1Config()
	var b strings.Builder
	b.WriteString("Table 1: Machine environment parameters\n")
	fmt.Fprintf(&b, "%-18s %8s %7s %11s %9s\n", "Name", "# of sets", "issue", "block size", "latency")
	row := func(name string, sets, assoc, block int, lat uint64, unit string) {
		fmt.Fprintf(&b, "%-18s %8d %6d-way %8d %-4s %3d cycle(s)\n", name, sets, assoc, block, unit, lat)
	}
	row("L1 Data Cache", cfg.Data.L1.Sets, cfg.Data.L1.Assoc, cfg.Data.L1.BlockSize, cfg.Data.L1.HitLatency, "byte")
	row("L2 Data Cache", cfg.Data.L2.Sets, cfg.Data.L2.Assoc, cfg.Data.L2.BlockSize, cfg.Data.L2.HitLatency, "byte")
	row("L1 Inst. Cache", cfg.Instr.L1.Sets, cfg.Instr.L1.Assoc, cfg.Instr.L1.BlockSize, cfg.Instr.L1.HitLatency, "byte")
	row("L2 Inst. Cache", cfg.Instr.L2.Sets, cfg.Instr.L2.Assoc, cfg.Instr.L2.BlockSize, cfg.Instr.L2.HitLatency, "byte")
	row("Data TLB", cfg.Data.TLBSets, cfg.Data.TLBAssoc, cfg.Data.PageSize/1024, cfg.Data.TLBMissPenalty, "KB")
	row("Instruction TLB", cfg.Instr.TLBSets, cfg.Instr.TLBAssoc, cfg.Instr.PageSize/1024, cfg.Instr.TLBMissPenalty, "KB")
	fmt.Fprintf(&b, "Main memory latency: %d cycles (not in the paper's table; see DESIGN.md)\n", cfg.Data.MemLatency)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7: login time with various secrets

// Figure7Series is one curve: per-attempt response times.
type Figure7Series struct {
	Valid int // number of valid usernames in the secret table
	Times []uint64
}

// Figure7Data holds all six curves (3 valid counts × ±mitigation).
type Figure7Data struct {
	Attempts    int
	Unmitigated []Figure7Series
	Mitigated   []Figure7Series
	// Pred1 and Pred2 are the sampled initial predictions used by the
	// mitigated curves.
	Pred1, Pred2 int64
}

// Figure7Config sizes the experiment; zero values take the paper's
// scale (100 attempts, valid ∈ {10, 50, 100}).
type Figure7Config struct {
	App         login.Config
	Attempts    int
	ValidCounts []int
	// Parallel fans the attempts out across goroutines. Each attempt
	// runs on its own cold machine, so parallel execution is safe and
	// bit-for-bit deterministic; results land in attempt order.
	Parallel bool
}

// Defaults fills zero fields with the paper-scale values.
func (c Figure7Config) Defaults() Figure7Config {
	if c.App.TableSize == 0 {
		c.App = login.DefaultConfig()
	}
	if c.Attempts == 0 {
		c.Attempts = 100
	}
	if len(c.ValidCounts) == 0 {
		c.ValidCounts = []int{10, 50, 100}
	}
	return c
}

// Figure7 measures login time for each attempt under each secret
// table, with and without mitigation, on partitioned Table-1 hardware.
func Figure7(cfg Figure7Config) (*Figure7Data, error) {
	cfg = cfg.Defaults()
	lat := lattice.TwoPoint()
	app, err := login.Build(cfg.App, lat)
	if err != nil {
		return nil, err
	}
	newEnv := func() hw.Env { return hw.MustEnv("partitioned", lat, hw.Table1Config()) }

	// Sample predictions per §8.2. Figure 7 models independent requests
	// (each attempt starts on a cold machine, as when probing a farm of
	// servers), so the samples are cold runs covering the worst-case
	// paths of both mitigated phases: an unknown user (full table scan)
	// and a wrong password for the last stored user (full verification
	// work after a near-full scan).
	sampleCreds := login.MakeCredentials(cfg.App.TableSize)
	sampleAtts := []login.Attempt{
		{User: sampleCreds[0].User, Pass: sampleCreds[0].Pass},
		{User: sampleCreds[len(sampleCreds)-1].User, Pass: "wrong"},
		{User: "no-such-user", Pass: "x"},
	}
	p1, p2, err := app.SamplePredictions(newEnv, sampleCreds, sampleAtts)
	if err != nil {
		return nil, err
	}

	data := &Figure7Data{Attempts: cfg.Attempts, Pred1: p1, Pred2: p2}
	allUsers := login.MakeCredentials(cfg.Attempts)
	for _, nValid := range cfg.ValidCounts {
		creds := login.MakeCredentials(nValid)
		for _, mit := range []bool{false, true} {
			series := Figure7Series{Valid: nValid, Times: make([]uint64, cfg.Attempts)}
			// Each attempt runs on a cold machine (independent probes).
			measure := func(a int) error {
				att := login.Attempt{User: allUsers[a].User, Pass: allUsers[a].Pass}
				res, err := app.Run(login.RunOptions{
					Env: newEnv(), Mitigate: mit, Pred1: p1, Pred2: p2,
				}, creds, att)
				if err != nil {
					return err
				}
				tm, err := login.ResponseTime(res)
				if err != nil {
					return err
				}
				series.Times[a] = tm
				return nil
			}
			if err := forEachAttempt(cfg.Attempts, cfg.Parallel, measure); err != nil {
				return nil, err
			}
			if mit {
				data.Mitigated = append(data.Mitigated, series)
			} else {
				data.Unmitigated = append(data.Unmitigated, series)
			}
		}
	}
	return data, nil
}

// forEachAttempt runs measure(0..n-1) sequentially or across
// GOMAXPROCS-bounded goroutines, returning the first error.
func forEachAttempt(n int, parallel bool, measure func(int) error) error {
	if !parallel {
		for a := 0; a < n; a++ {
			if err := measure(a); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for a := 0; a < n; a++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(a int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := measure(a); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(a)
	}
	wg.Wait()
	return first
}

// Render formats the figure as a text table: one row per attempt.
func (d *Figure7Data) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: Login time with various secrets (cycles)\n")
	b.WriteString("attempt | unmitigated: ")
	for _, s := range d.Unmitigated {
		fmt.Fprintf(&b, "%7s ", fmt.Sprintf("v=%d", s.Valid))
	}
	b.WriteString("| mitigated: ")
	for _, s := range d.Mitigated {
		fmt.Fprintf(&b, "%7s ", fmt.Sprintf("v=%d", s.Valid))
	}
	b.WriteString("\n")
	for a := 0; a < d.Attempts; a++ {
		fmt.Fprintf(&b, "%7d | ", a)
		for _, s := range d.Unmitigated {
			fmt.Fprintf(&b, "%7d ", s.Times[a])
		}
		b.WriteString("|           ")
		for _, s := range d.Mitigated {
			fmt.Fprintf(&b, "%7d ", s.Times[a])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(sampled predictions: pred1=%d, pred2=%d)\n", d.Pred1, d.Pred2)
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 2: login time with various usernames and options

// Table2Data holds average login times per hardware/mitigation option.
type Table2Data struct {
	AvgValid   map[HWOption]uint64
	AvgInvalid map[HWOption]uint64
}

// Table2Config sizes the experiment.
type Table2Config struct {
	App      login.Config
	NumValid int
	Attempts int
}

// Defaults fills zero fields with the paper-scale values.
func (c Table2Config) Defaults() Table2Config {
	if c.App.TableSize == 0 {
		c.App = login.DefaultConfig()
	}
	if c.NumValid == 0 {
		c.NumValid = 50
	}
	if c.Attempts == 0 {
		c.Attempts = 50
	}
	return c
}

// Table2 measures average valid/invalid login time under nopar, moff,
// and mon.
func Table2(cfg Table2Config) (*Table2Data, error) {
	cfg = cfg.Defaults()
	lat := lattice.TwoPoint()
	app, err := login.Build(cfg.App, lat)
	if err != nil {
		return nil, err
	}
	creds := login.MakeCredentials(cfg.NumValid)
	newPart := func() hw.Env { return hw.MustEnv("partitioned", lat, hw.Table1Config()) }
	// Warm worst-case sampling: the discarded warm-up attempt is a
	// valid login so it warms the verification work table too; the
	// measured samples then cover the warm full-scan and full-work
	// paths.
	fullTable := login.MakeCredentials(cfg.App.TableSize)
	sampleAtts := []login.Attempt{
		{User: fullTable[0].User, Pass: fullTable[0].Pass},
		{User: fullTable[len(fullTable)-1].User, Pass: "wrong"},
		{User: "no-such-user", Pass: "x"},
	}
	p1, p2, err := app.SamplePredictionsWarm(newPart(), fullTable, sampleAtts)
	if err != nil {
		return nil, err
	}

	data := &Table2Data{
		AvgValid:   make(map[HWOption]uint64),
		AvgInvalid: make(map[HWOption]uint64),
	}
	for _, opt := range []HWOption{Nopar, Moff, Mon} {
		var sumV, nV, sumI, nI uint64
		// One persistent environment per option: the server stays warm
		// across the request sequence. One unmeasured warm-up request
		// brings it to steady state.
		env := opt.env(lat)
		warmup := login.Attempt{User: creds[0].User, Pass: creds[0].Pass}
		if _, err := app.Run(login.RunOptions{
			Env: env, Mitigate: opt.mitigate(), Pred1: p1, Pred2: p2,
		}, creds, warmup); err != nil {
			return nil, err
		}
		for a := 0; a < cfg.Attempts; a++ {
			// Valid attempt: one of the stored credentials.
			attV := login.Attempt{User: creds[a%len(creds)].User, Pass: creds[a%len(creds)].Pass}
			resV, err := app.Run(login.RunOptions{
				Env: env, Mitigate: opt.mitigate(), Pred1: p1, Pred2: p2,
			}, creds, attV)
			if err != nil {
				return nil, err
			}
			tV, err := login.ResponseTime(resV)
			if err != nil {
				return nil, err
			}
			sumV += tV
			nV++
			// Invalid attempt.
			attI := login.Attempt{User: fmt.Sprintf("ghost-%03d", a), Pass: "x"}
			resI, err := app.Run(login.RunOptions{
				Env: env, Mitigate: opt.mitigate(), Pred1: p1, Pred2: p2,
			}, creds, attI)
			if err != nil {
				return nil, err
			}
			tI, err := login.ResponseTime(resI)
			if err != nil {
				return nil, err
			}
			sumI += tI
			nI++
		}
		data.AvgValid[opt] = sumV / nV
		data.AvgInvalid[opt] = sumI / nI
	}
	return data, nil
}

// OverheadValid returns avg-valid(opt) / avg-valid(nopar), the
// "overhead (valid)" row of Table 2.
func (d *Table2Data) OverheadValid(opt HWOption) float64 {
	return float64(d.AvgValid[opt]) / float64(d.AvgValid[Nopar])
}

// Render formats the table like the paper's Table 2.
func (d *Table2Data) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: Login time with various usernames and options (in clock cycles)\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s\n", "", "nopar", "moff", "mon")
	fmt.Fprintf(&b, "%-22s %10d %10d %10d\n", "ave. time (valid)",
		d.AvgValid[Nopar], d.AvgValid[Moff], d.AvgValid[Mon])
	fmt.Fprintf(&b, "%-22s %10d %10d %10d\n", "ave. time (invalid)",
		d.AvgInvalid[Nopar], d.AvgInvalid[Moff], d.AvgInvalid[Mon])
	fmt.Fprintf(&b, "%-22s %10.2f %10.2f %10.2f\n", "overhead (valid)",
		1.0, d.OverheadValid(Moff), d.OverheadValid(Mon))
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 8: RSA decryption time with two keys

// Figure8Data holds per-message decryption times for two keys, with
// and without mitigation.
type Figure8Data struct {
	Messages       int
	Key1, Key2     int64
	Unmit1, Unmit2 []uint64
	Mit1, Mit2     []uint64
	Pred           int64
}

// Figure8Config sizes the experiment.
type Figure8Config struct {
	App      rsa.Config
	Messages int
	Blocks   int
	Key1     int64
	Key2     int64
}

// Defaults fills zero fields with the paper-scale values.
func (c Figure8Config) Defaults() Figure8Config {
	if c.App.MaxBlocks == 0 {
		c.App = rsa.DefaultConfig()
	}
	if c.Messages == 0 {
		c.Messages = 100
	}
	if c.Blocks == 0 {
		c.Blocks = 4
	}
	if c.Key1 == 0 {
		c.Key1 = 0x7FFFFFFFFFFF6FFD // dense 63-bit key: many multiply steps
	}
	if c.Key2 == 0 {
		c.Key2 = 0x4000000000000081 // sparse 63-bit key: few multiply steps
	}
	return c
}

// Figure8 measures decryption time of each message under both keys.
func Figure8(cfg Figure8Config) (*Figure8Data, error) {
	cfg = cfg.Defaults()
	lat := lattice.TwoPoint()
	app, err := rsa.Build(cfg.App, rsa.LanguageLevel, lat)
	if err != nil {
		return nil, err
	}
	newEnv := func() hw.Env { return hw.MustEnv("partitioned", lat, hw.Table1Config()) }
	pred, err := app.SamplePrediction(newEnv,
		[]int64{cfg.Key1, cfg.Key2},
		[][]int64{rsa.Message(cfg.Blocks, 1), rsa.Message(cfg.Blocks, 2)})
	if err != nil {
		return nil, err
	}
	data := &Figure8Data{Messages: cfg.Messages, Key1: cfg.Key1, Key2: cfg.Key2, Pred: pred}
	run := func(key int64, msgIdx int, mit bool) (uint64, error) {
		res, err := app.Run(newEnv(), key, rsa.Message(cfg.Blocks, int64(msgIdx)), pred, mit)
		if err != nil {
			return 0, err
		}
		return rsa.ResponseTime(res)
	}
	for i := 0; i < cfg.Messages; i++ {
		for _, mit := range []bool{false, true} {
			t1, err := run(cfg.Key1, i, mit)
			if err != nil {
				return nil, err
			}
			t2, err := run(cfg.Key2, i, mit)
			if err != nil {
				return nil, err
			}
			if mit {
				data.Mit1 = append(data.Mit1, t1)
				data.Mit2 = append(data.Mit2, t2)
			} else {
				data.Unmit1 = append(data.Unmit1, t1)
				data.Unmit2 = append(data.Unmit2, t2)
			}
		}
	}
	return data, nil
}

// Render formats the figure as a text table.
func (d *Figure8Data) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: RSA decryption time with two private keys (cycles)\n")
	fmt.Fprintf(&b, "message | unmit key1=%#x  unmit key2=%#x | mit key1    mit key2\n", d.Key1, d.Key2)
	for i := 0; i < d.Messages; i++ {
		fmt.Fprintf(&b, "%7d | %15d %16d | %9d %11d\n",
			i, d.Unmit1[i], d.Unmit2[i], d.Mit1[i], d.Mit2[i])
	}
	fmt.Fprintf(&b, "(sampled prediction: %d)\n", d.Pred)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 9: language-level vs system-level mitigation

// Figure9Data holds decryption times by message size for the two
// mitigation granularities (plus the unmitigated reference).
type Figure9Data struct {
	Blocks        []int
	LanguageLevel []uint64
	SystemLevel   []uint64
	Unmitigated   []uint64
}

// Figure9Config sizes the experiment.
type Figure9Config struct {
	App       rsa.Config
	MaxBlocks int
	Key       int64
}

// Defaults fills zero fields with the paper-scale values.
func (c Figure9Config) Defaults() Figure9Config {
	if c.App.MaxBlocks == 0 {
		c.App = rsa.DefaultConfig()
	}
	if c.MaxBlocks == 0 {
		c.MaxBlocks = c.App.MaxBlocks
	}
	if c.Key == 0 {
		c.Key = 0x6D2B79F5DEECE66D // 63-bit key: exponentiation dominates
	}
	return c
}

// Figure9 measures decryption time for message sizes 1..MaxBlocks
// under language-level and system-level mitigation.
func Figure9(cfg Figure9Config) (*Figure9Data, error) {
	cfg = cfg.Defaults()
	lat := lattice.TwoPoint()
	langApp, err := rsa.Build(cfg.App, rsa.LanguageLevel, lat)
	if err != nil {
		return nil, err
	}
	sysApp, err := rsa.Build(cfg.App, rsa.SystemLevel, lat)
	if err != nil {
		return nil, err
	}
	newEnv := func() hw.Env { return hw.MustEnv("partitioned", lat, hw.Table1Config()) }
	perBlock, err := langApp.SamplePrediction(newEnv,
		[]int64{cfg.Key}, [][]int64{rsa.Message(1, 1)})
	if err != nil {
		return nil, err
	}
	// The system-level mitigator cannot distinguish the benign timing
	// variation due to (public) message length from secret-dependent
	// variation, so it calibrates on the average over the whole
	// workload distribution — and then over- or under-predicts every
	// individual size, paying doubling penalties (§8.4, Fig. 9).
	var sizes [][]int64
	for n := 1; n <= cfg.MaxBlocks; n++ {
		sizes = append(sizes, rsa.Message(n, int64(n)))
	}
	sysAvg, _, err := sysApp.SampleElapsed(newEnv, []int64{cfg.Key}, sizes)
	if err != nil {
		return nil, err
	}
	whole := sysAvg * 110 / 100
	data := &Figure9Data{}
	for n := 1; n <= cfg.MaxBlocks; n++ {
		msg := rsa.Message(n, int64(n))
		lr, err := langApp.Run(newEnv(), cfg.Key, msg, perBlock, true)
		if err != nil {
			return nil, err
		}
		lt, err := rsa.ResponseTime(lr)
		if err != nil {
			return nil, err
		}
		sr, err := sysApp.Run(newEnv(), cfg.Key, msg, whole, true)
		if err != nil {
			return nil, err
		}
		st, err := rsa.ResponseTime(sr)
		if err != nil {
			return nil, err
		}
		ur, err := langApp.Run(newEnv(), cfg.Key, msg, perBlock, false)
		if err != nil {
			return nil, err
		}
		ut, err := rsa.ResponseTime(ur)
		if err != nil {
			return nil, err
		}
		data.Blocks = append(data.Blocks, n)
		data.LanguageLevel = append(data.LanguageLevel, lt)
		data.SystemLevel = append(data.SystemLevel, st)
		data.Unmitigated = append(data.Unmitigated, ut)
	}
	return data, nil
}

// Render formats the figure as a text table.
func (d *Figure9Data) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9: Language-level vs. system-level mitigation (cycles)\n")
	fmt.Fprintf(&b, "%7s %14s %14s %14s\n", "blocks", "unmitigated", "language", "system")
	for i, n := range d.Blocks {
		fmt.Fprintf(&b, "%7d %14d %14d %14d\n", n, d.Unmitigated[i], d.LanguageLevel[i], d.SystemLevel[i])
	}
	return b.String()
}
