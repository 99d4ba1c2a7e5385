package main

import (
	"fmt"
	"strings"

	"repro/internal/bench"
)

// usage renders the command's help from the experiment registry. The
// package comment in doc.go is the same text; go generate refreshes it
// and TestPackageDoc fails when it drifts.
func usage() string {
	var b strings.Builder
	b.WriteString(`Command erabench runs the experiment suite. Each experiment prints its
table and gates, writes a BENCH_<name>.json artifact envelope
(experiment, host, config, rows, gates) into -out, and erabench exits
nonzero when any gate is false.

Usage:

	erabench [-exp name] [-short] [-out dir] [flags]

Experiments (-exp; "all", the default, runs every one in name order):

`)
	for _, e := range bench.Experiments() {
		fmt.Fprintf(&b, "\t%-11s %s\n", e.Name, e.Title)
		if len(e.Gates) > 0 {
			fmt.Fprintf(&b, "\t%-11s gates: %s\n", "", strings.Join(e.Gates, ", "))
		}
	}
	b.WriteString(`
-short runs each experiment at its CI smoke scale. The throughput
family is workload-driven: -workload names the key distribution and
-mix the op-mix schedule, both resolved through the internal/workload
registries. -seed fixes every stream, so two runs with equal flags
replay identical operation sequences:

	erabench -exp throughput -workload zipfian -mix phased
	erabench -exp batch -short -out artifacts
`)
	return b.String()
}
