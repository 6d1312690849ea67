// Command bench is the repo's one benchmark: five named workloads over the
// whole stack, end-to-end metrics with regression bounds, per-layer metrics,
// and a traced run that attributes an op's time to the layers under it.
// Every layer is measured from outside, through its exported functions and
// Stats snapshots.  See README.md in this directory and BENCHMARK.json at the
// repo root.
//
//	go run ./bench -seed S -out FILE [-trace 1]      every workload, one report
//	go run ./bench -workload W -seed S -seconds T -trace 0|1
//	                                                 one run in the driver's shape
//	go run ./bench -compare A.json B.json            regression verdicts, B against A
package main

import (
	"flag"
	"fmt"
	"os"
)

// Defaults recorded in BENCHMARK.json and README.md.
const (
	defaultSeed    = 1
	defaultSeconds = 12
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run (web_warm, web_churn, unix_build, lfs_sync, lfs_ckpt) or all")
		seed     = flag.Int64("seed", defaultSeed, "seed of the generated inputs: user choice, payload bytes, offsets")
		seconds  = flag.Int("seconds", defaultSeconds, "measured seconds per run at the calibration host; fixes the op counts")
		trace    = flag.Int("trace", 0, "1 adds a traced trial: spans, probes, per-layer metrics and the layer ladder")
		traceDir = flag.String("trace-dir", ".bench_build", "directory the traced trial writes its spans into (JSON lines)")
		out      = flag.String("out", "", "with -workload all, write the whole report to this file")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")

		child    = flag.Bool("child", false, "internal: run one trial in this process")
		n        = flag.Int("n", 0, "internal: the child's scale unit")
		traceOut = flag.String("trace-out", "", "internal: the child's span file")
		setup    = flag.Bool("setup-only", false, "internal: the child stops after set-up")
	)
	flag.Parse()

	var err error
	switch {
	case *child:
		err = childMain(trialSpec{Workload: *workload, Seed: *seed, N: *n, Traced: *trace != 0, TraceOut: *traceOut, SetupOnly: *setup}, os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare A.json B.json")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1")
	case *workload == "all":
		err = runSet(*seed, *seconds, *trace != 0, *traceDir, *out)
	default:
		w := findWorkload(*workload)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *workload)
			break
		}
		err = runDriver(w, *seed, *seconds, *trace != 0, *traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}
