// Command gencertifycorpus regenerates the progen certification
// corpus checked in at internal/certify/testdata/progen_corpus.json.
//
// A random well-typed program is only a useful certification workload
// when it actually has a timing channel to close: the tool scans
// generator seeds and keeps one only if (a) the unmitigated program's
// response time distinguishes ≥ 1 bit of the secret scalar on
// partitioned hardware — otherwise the positive control proves
// nothing — and (b) every secret's mitigated run executes at least one
// mitigate command, so the reported §7 bound is a real claim (K ≥ 1)
// rather than a vacuous zero; and (c) the mitigated configuration
// certifies on both engines, so a checked-in seed cannot make
// `make certify` flaky.
//
// Usage:
//
//	go run ./internal/tools/gencertifycorpus [-n 2] [-max-seed 500] [-o path]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/certify"
	"repro/internal/exec"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
)

func main() {
	n := flag.Int("n", 2, "corpus size (seeds to keep)")
	maxSeed := flag.Int64("max-seed", 500, "highest generator seed to scan")
	secrets := flag.Int("secrets", 8, "secret-space size per workload")
	out := flag.String("o", "internal/certify/testdata/progen_corpus.json", "output file")
	flag.Parse()

	var kept []certify.CorpusEntry
	ctx := context.Background()
	for seed := int64(1); seed <= *maxSeed && len(kept) < *n; seed++ {
		for _, v := range []string{"s_H_0", "s_H_1"} {
			ok, err := vet(ctx, seed, v, *secrets)
			if err != nil {
				fmt.Fprintf(os.Stderr, "seed %d var %s: %v\n", seed, v, err)
				continue
			}
			if ok {
				kept = append(kept, certify.CorpusEntry{Seed: seed, Var: v, N: *secrets})
				fmt.Printf("kept seed %d var %s\n", seed, v)
				break
			}
		}
	}
	if len(kept) < *n {
		fmt.Fprintf(os.Stderr, "gencertifycorpus: only %d of %d seeds qualified\n", len(kept), *n)
		os.Exit(1)
	}
	doc := struct {
		Programs []certify.CorpusEntry `json:"programs"`
	}{Programs: kept}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gencertifycorpus:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gencertifycorpus:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d programs)\n", *out, len(kept))
}

// vet applies the three corpus criteria to one (seed, var) candidate.
func vet(ctx context.Context, seed int64, secretVar string, n int) (bool, error) {
	w, err := certify.ProgenWorkload(seed, secretVar, n)
	if err != nil {
		return false, nil // no such variable or generation failed: skip quietly
	}

	// (a) Unmitigated signal: the exhaustive distinguisher must
	// extract ≥ 1 bit on partitioned hardware.
	unmit, err := certify.NewEngineTarget(w, certify.TargetConfig{Engine: "tree", Mitigated: false})
	if err != nil {
		return false, err
	}
	att, err := (&certify.Exhaustive{}).Mount(ctx, unmit, certify.NewRNG(seed))
	if err != nil {
		return false, err
	}
	if att.Bits < 1 {
		return false, nil
	}

	// (b) Mitigate coverage: every secret's mitigated run must
	// execute at least one mitigate command (K ≥ 1 per probe), or the
	// reported bound is vacuous for part of the secret space.
	env := hw.NewPartitioned(w.Lat, w.Config())
	eng, err := exec.NewEngine("tree", w.Prog, w.Res, env, exec.Options{
		Limits: exec.Limits{MaxSteps: 10_000_000},
	})
	if err != nil {
		return false, err
	}
	for i := 0; i < n; i++ {
		res, err := eng.Run(ctx, exec.Request{Setup: func(m *mem.Memory) { w.Set(i, m) }})
		if err != nil {
			return false, nil // step-limit blowups etc.: skip the seed
		}
		if len(res.Mitigations) == 0 {
			return false, nil
		}
	}

	// (c) The mitigated configuration must certify on both engines.
	for _, engine := range []string{"tree", "vm"} {
		t, err := certify.NewEngineTarget(w, certify.TargetConfig{Engine: engine, Mitigated: true})
		if err != nil {
			return false, err
		}
		res, err := certify.Certify(ctx, t, seed)
		if err != nil {
			return false, err
		}
		if !res.Certified {
			return false, nil
		}
	}
	return true, nil
}
