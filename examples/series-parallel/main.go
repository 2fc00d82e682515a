// Series-parallel: the paper's future-work extension in action. A diamond
// workflow — object detection fanning out to concurrent question answering
// and text-to-speech, joining into compression — is an ordinary workflow
// DAG: the profiler measures each decision group (the parallel stage as a
// max-of-branches composite), the synthesizer builds one hints table per
// group, and serving runs on the real cluster substrate: every branch
// holds its own pod, pays warm-pool specialization or a cold start, queues
// when the node is out of capacity, and the join waits for the slowest
// branch.
//
//	go run ./examples/series-parallel
package main

import (
	"fmt"
	"log"
	"time"

	"janus"
)

func main() {
	w, err := janus.NewSeriesParallelWorkflow("diamond", 3500*time.Millisecond, [][]string{
		{"od"},
		{"qa", "ts"}, // concurrent branches, join
		{"ico"},
	})
	if err != nil {
		log.Fatal(err)
	}
	coloc, err := janus.NewColocationSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	p, err := janus.NewProfiler(janus.Catalog(), coloc, janus.DefaultInterference(), 3)
	if err != nil {
		log.Fatal(err)
	}
	p.SamplesPerConfig = 1500

	fmt.Println("reducing the diamond to an effective chain (parallel stage -> max-of-branches profile)...")
	set, err := p.ProfileWorkflow(w, 1)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < set.Len(); i++ {
		fmt.Printf("  stage %d: %-22s L(99, Kmin)=%v\n", i, set.At(i).Function, set.At(i).L(99, 1000))
	}

	dep, err := janus.DeployProfiled(set, janus.DeployOptions{
		Functions:           janus.Catalog(),
		Colocation:          coloc,
		Interference:        janus.DefaultInterference(),
		Seed:                5,
		BudgetStepMs:        5,
		DisableRegeneration: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hints: %d tables, %d condensed ranges\n", dep.Bundle().Stages(), dep.Bundle().TotalRanges())

	// Serving runs the fork-join DAG on the discrete-event cluster — not a
	// sequential replay loop — so the numbers below include cold starts,
	// capacity queueing, and per-stage decision overhead.
	reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
		Workflow:          w,
		Functions:         janus.Catalog(),
		N:                 500,
		ArrivalRatePerSec: 2,
		Colocation:        coloc,
		Interference:      janus.DefaultInterference(),
		Seed:              9,
	})
	if err != nil {
		log.Fatal(err)
	}
	ecfg := janus.DefaultExecutorConfig()
	ecfg.Seed = 9
	ex, err := janus.NewExecutor(ecfg, janus.Catalog())
	if err != nil {
		log.Fatal(err)
	}
	traces, err := ex.Run(reqs, dep.Allocator("janus"))
	if err != nil {
		log.Fatal(err)
	}
	var worst time.Duration
	cold, parked := 0, 0
	for _, tr := range traces {
		worst = max(worst, tr.E2E)
		parked += tr.Parked
		for _, st := range tr.Stages {
			if st.Cold {
				cold++
			}
		}
	}
	fmt.Printf("\nserved %d requests on the cluster substrate: mean %.0f millicores (branches included)\n",
		len(traces), janus.MeanMillicores(traces))
	fmt.Printf("worst e2e %v (SLO %v), SLO violations %.2f%%, hints misses %.2f%%\n",
		worst.Round(time.Millisecond), w.SLO(),
		janus.SLOViolationRate(traces)*100, janus.MissRate(traces)*100)
	fmt.Printf("substrate events: %d cold starts, %d capacity parkings\n", cold, parked)
}
