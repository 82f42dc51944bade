// Command rbacbench regenerates the paper's evaluation artifacts: each
// experiment in the registry (rbacbench -list) prints its table or trace to
// stdout and self-checks its claim, exiting non-zero on divergence.
//
//	rbacbench -exp all   # run everything
//	rbacbench -exp F3    # the flexworker example
//	rbacbench -exp P1    # incremental engine churn + snapshots
//	rbacbench -list      # list experiments
//
// Measuring the service is not this command's job: see bench/README.md
// (bash bench/run.sh drives real rbacd processes).
package main

import (
	"flag"
	"fmt"
	"os"

	"adminrefine/internal/cli"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID to run (F1 F2 F3 E5 E6 T1 L1 C1 S1 H1 A1 P1, or all)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range cli.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	if err := cli.RunExperiment(os.Stdout, *exp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
