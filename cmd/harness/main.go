// Command harness regenerates every table and figure of the paper's
// evaluation section (§8) and the extended experiments (leakage
// bounds, service, network, sessions).
//
// Usage:
//
//	harness [-experiment all|list|<name>] [-quick] [-format text|json|csv]
//	        [-parallel] [-plot] [-engine tree|vm] [-seed N]
//
// `-experiment list` prints the registered experiments with one-line
// summaries; the set is open — experiments self-register with
// experiments.Register, and this command has no per-experiment code.
// The text format is the human-readable table; json and csv emit the
// raw data for external plotting (text-only experiments, like table1,
// are skipped with a note under those formats).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	which := flag.String("experiment", "all",
		"experiment to run: all, list, or one of "+strings.Join(experiments.Names(), ", "))
	quick := flag.Bool("quick", false, "reduced-scale run (faster)")
	format := flag.String("format", "text", "output format: text, json, csv")
	parallel := flag.Bool("parallel", true, "fan independent probes across goroutines where supported")
	plot := flag.Bool("plot", false, "render figures as ASCII charts (text format only)")
	engine := flag.String("engine", "tree", "execution engine for service-backed experiments: tree, vm")
	seed := flag.Int64("seed", 0, "seed for randomized experiments (0 = experiment default)")
	flag.Parse()

	if *which == "list" {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.Name, e.Summary)
		}
		return
	}

	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "harness: unknown format %q\n", *format)
		os.Exit(2)
	}

	var run []experiments.Experiment
	if *which == "all" {
		run = experiments.All()
	} else {
		e, ok := experiments.Lookup(*which)
		if !ok {
			fmt.Fprintf(os.Stderr, "harness: unknown experiment %q (want all, list, or one of %s)\n",
				*which, strings.Join(experiments.Names(), ", "))
			os.Exit(2)
		}
		run = []experiments.Experiment{e}
	}

	opts := experiments.RunOptions{
		Quick:    *quick,
		Parallel: *parallel,
		Plot:     *plot,
		Engine:   *engine,
		Seed:     *seed,
	}
	for _, e := range run {
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "harness: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		switch *format {
		case "text":
			fmt.Print(rep.Text)
			fmt.Println()
		case "json":
			if rep.Data == nil {
				fmt.Fprintf(os.Stderr, "harness: %s is text-only\n", e.Name)
				continue
			}
			if err := experiments.WriteJSON(os.Stdout, rep.Data); err != nil {
				fmt.Fprintf(os.Stderr, "harness: %s: %v\n", e.Name, err)
				os.Exit(1)
			}
		case "csv":
			if rep.Data == nil {
				fmt.Fprintf(os.Stderr, "harness: %s is text-only\n", e.Name)
				continue
			}
			if err := experiments.WriteCSV(os.Stdout, rep.Data); err != nil {
				fmt.Fprintf(os.Stderr, "harness: %s: %v\n", e.Name, err)
				os.Exit(1)
			}
		}
	}
}
