// Command certifybench runs the adversarial leakage-certification
// sweep (internal/certify) and prints the rows as `go test -bench`
// format lines for internal/tools/benchjson. Every metric is a pure
// function of -seed — no wall-clock units appear — so equal seeds
// yield byte-identical output and therefore a byte-identical
// BENCH_certify.json.
//
// The command exits 1 if the sweep's acceptance claims fail: a
// mitigated configuration on partitioned hardware whose measured
// upper confidence bound exceeds its reported §7 bound, no
// unmitigated baseline measuring ≥ 1 bit (the positive control), or
// no mitigated nopar row whose prime+probe attack measures ≥ 1 bit
// (the cache control).
//
// Usage:
//
//	go run ./internal/tools/certifybench [-seed 1] [-quick] | go run ./internal/tools/benchjson -o BENCH_certify.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/certify"
)

func main() {
	seed := flag.Int64("seed", 1, "sweep seed (equal seeds replay bit-for-bit)")
	quick := flag.Bool("quick", false, "run the smoke slice instead of the full matrix")
	flag.Parse()

	ctx := context.Background()
	rows, err := certify.Sweep(ctx, certify.SweepOptions{Seed: *seed, Quick: *quick})
	if err != nil {
		fmt.Fprintln(os.Stderr, "certifybench:", err)
		os.Exit(1)
	}
	for _, line := range certify.BenchLines(rows) {
		fmt.Println(line)
	}
	if err := certify.Check(rows); err != nil {
		fmt.Fprintln(os.Stderr, "certifybench:", err)
		os.Exit(1)
	}
	certified := 0
	for _, r := range rows {
		if r.Result.Certified {
			certified++
		}
	}
	fmt.Fprintf(os.Stderr, "certifybench: %d rows, %d certified, positive and cache controls passed\n",
		len(rows), certified)
}
