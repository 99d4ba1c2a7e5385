package main

//go:generate go test -run TestPackageDoc -update

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run, or all")
	short := flag.Bool("short", false, "run at reduced scale (the CI smoke configuration)")
	out := flag.String("out", ".", `directory for the BENCH_<name>.json artifacts ("" disables)`)
	seed := flag.Uint64("seed", 42, "workload seed: runs with equal seeds draw identical operation streams")
	k := flag.Int("k", 0, "churn length for matrix/space/structures (0 = 800, 300 with -short)")
	ops := flag.Int("ops", 0, "operations per thread or client for throughput/michael/service (0 = 20000, 4000 with -short)")
	keyRange := flag.Int("keyrange", 0, "key universe for throughput/michael/service (0 = 1024, 512 with -short)")
	structure := flag.String("structure", "", `set structure for the throughput sweep ("" = harris)`)
	wl := flag.String("workload", "", `key distribution for throughput/michael/service ("" = uniform)`)
	mix := flag.String("mix", "", `op-mix schedule for throughput/michael/service ("" = steady)`)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), usage()+"\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "erabench: %v\n", err)
		os.Exit(2)
	}
	exps := bench.Experiments()
	if *exp != "all" {
		e, err := bench.LookupExperiment(*exp)
		if err != nil {
			fail(err)
		}
		exps = []bench.Experiment{e}
	}
	p := bench.Params{
		Seed: *seed, Short: *short, K: *k, Ops: *ops, KeyRange: *keyRange,
		Structure: *structure, Workload: *wl, Mix: *mix,
	}
	// Reject bad selections up front rather than after a long run.
	if err := p.Validate(); err != nil {
		fail(err)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
	}

	// A failed experiment does not stop the others: every artifact still
	// lands, and the exit status reports the failure.
	failed := false
	for _, e := range exps {
		fmt.Printf("==== %s ====\n", e.Title)
		if err := bench.RunExperiment(os.Stdout, e, p, *out); err != nil {
			fmt.Fprintf(os.Stderr, "erabench: %s: %v\n", e.Name, err)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}
