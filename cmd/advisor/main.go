// Command advisor recommends the best system composition for a workload —
// the paper's §VI future-work framework, built on the simulator. It
// evaluates the candidate topologies, ranks them by throughput, and
// explains the outcome in terms of gradient-synchronization overlap.
//
// With -fleet it switches to fleet mode: given a described job mix, it
// replays the mix on the simulated multi-host testbed under every
// placement policy and recommends one (internal/advisor.RecommendPolicy).
//
// Usage:
//
//	advisor -model BERT-L
//	advisor -model ResNet-50 -iters 20
//	advisor -fleet 4xResNet-50:4,2xBERT:2
//	advisor -fleet 3xMobileNetV2:2 -hosts 2 -gpus 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"composable/internal/advisor"
	"composable/internal/dlmodel"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable main: parse flags, dispatch to the topology or
// fleet path, and return the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("advisor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelName = fs.String("model", "BERT-L", "benchmark (Table II name)")
		iters     = fs.Int("iters", 12, "iterations per evaluation epoch")
		epochs    = fs.Int("epochs", 2, "evaluation epochs")
		fleetMix  = fs.String("fleet", "", "job mix 'COUNTxWORKLOAD:GPUS[,...]' — recommend a placement policy instead of a topology")
		hosts     = fs.Int("hosts", 3, "with -fleet: host machines on the chassis")
		gpus      = fs.Int("gpus", 12, "with -fleet: chassis GPU inventory")
		mtbf      = fs.Duration("mtbf", 0, "with -fleet: replay the mix under a seeded fault profile with this mean time between failures (0 = fault-free)")
		faultSeed = fs.Int64("fault-seed", 1, "with -fleet -mtbf: fault schedule seed")
		sloSpec   = fs.String("slo", "", `with -fleet: score every policy against this SLO, e.g. "p99-wait<=500ms max-failed<=0"`)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *fleetMix != "" {
		mix, err := parseMix(*fleetMix)
		if err != nil {
			fmt.Fprintln(stderr, "advisor:", err)
			return 2
		}
		mix.Hosts, mix.GPUs = *hosts, *gpus
		mix.ItersPerEpoch = *iters
		mix.MTBF, mix.FaultSeed = *mtbf, *faultSeed
		mix.SLO = *sloSpec
		rec, err := advisor.RecommendPolicy(mix)
		if err != nil {
			fmt.Fprintln(stderr, "advisor:", err)
			return 1
		}
		fmt.Fprint(stdout, rec.Report())
		return 0
	}

	w, err := dlmodel.BenchmarkByName(*modelName)
	if err != nil {
		fmt.Fprintln(stderr, "advisor:", err)
		return 2
	}
	rec, err := advisor.Recommend(w, advisor.Options{ItersPerEpoch: *iters, Epochs: *epochs})
	if err != nil {
		fmt.Fprintln(stderr, "advisor:", err)
		return 1
	}
	fmt.Fprint(stdout, rec.Report())
	return 0
}

// parseMix parses "COUNTxWORKLOAD:GPUS[,...]" into a fleet job mix, e.g.
// "4xResNet-50:4,2xBERT:2".
func parseMix(s string) (advisor.FleetMix, error) {
	var mix advisor.FleetMix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		countStr, rest, ok := strings.Cut(part, "x")
		if !ok {
			return mix, fmt.Errorf("bad mix entry %q (want COUNTxWORKLOAD:GPUS)", part)
		}
		wl, gpuStr, ok := strings.Cut(rest, ":")
		if !ok {
			return mix, fmt.Errorf("bad mix entry %q (want COUNTxWORKLOAD:GPUS)", part)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 1 {
			return mix, fmt.Errorf("bad count in %q", part)
		}
		g, err := strconv.Atoi(gpuStr)
		if err != nil || g < 1 {
			return mix, fmt.Errorf("bad GPU count in %q", part)
		}
		if _, err := dlmodel.BenchmarkByName(wl); err != nil {
			return mix, err
		}
		mix.Classes = append(mix.Classes, advisor.FleetJobClass{Count: count, GPUs: g, Workload: wl})
	}
	return mix, nil
}
