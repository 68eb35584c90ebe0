// Command bench regenerates every table and figure of the paper's
// evaluation section, plus the ablation studies listed in DESIGN.md.
//
// Usage:
//
//	bench -list
//	bench -run fig5          # one experiment
//	bench -run fig           # every figure
//	bench -run all -quick    # smoke-run everything with reduced parameters
//
// Figure experiments print both a per-point table and the aligned
// latency-vs-throughput series the paper plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		run      = flag.String("run", "all", "substring selecting experiments (see -list)")
		quick    = flag.Bool("quick", false, "reduced parameters for a fast smoke run")
		list     = flag.Bool("list", false, "list available experiments and exit")
		batchMax = flag.Int("batchmax", 0, "cap the commit-batch sweep of the batch experiment (0 = full sweep)")
		readMax  = flag.Int("readmax", 0, "cap the lookup-batch sweep of the read experiment (0 = full sweep)")
		partMax  = flag.Int("partmax", 0, "cap the partition-count sweep of the scaleout experiment (0 = full sweep)")
		jsonOut  = flag.String("json", "", "write the selected experiment's JSON result to this path (scaleout-elastic, ingress, obs, anomaly and failover)")
	)
	flag.Parse()

	bench.JSONPath = *jsonOut

	if *partMax > 0 {
		var parts []int
		for _, p := range bench.ScaleoutPartitions {
			if p <= *partMax {
				parts = append(parts, p)
			}
		}
		bench.ScaleoutPartitions = parts
	}

	if *batchMax > 0 {
		var sizes []int
		for _, s := range bench.BatchSizes {
			if s <= *batchMax {
				sizes = append(sizes, s)
			}
		}
		bench.BatchSizes = sizes
	}
	if *readMax > 0 {
		var sizes []int
		for _, s := range bench.ReadBatchSizes {
			if s <= *readMax {
				sizes = append(sizes, s)
			}
		}
		bench.ReadBatchSizes = sizes
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-22s %s\n", e.Name, e.Title)
		}
		return
	}
	experiments := bench.Find(*run)
	if len(experiments) == 0 {
		fmt.Fprintf(os.Stderr, "bench: no experiment matches %q (try -list)\n", *run)
		os.Exit(1)
	}
	for _, e := range experiments {
		start := time.Now()
		out, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
}
