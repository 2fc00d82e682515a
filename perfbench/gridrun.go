package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"janus/internal/experiment"
)

const (
	// setupReps is how many times a grid run repeats its set-up; setup_s
	// is the median.
	setupReps = 5
	// probeDecides is the in-process decide probe's request count.
	probeDecides = 1 << 18
)

// setupGrid derives the run's input sets from the seed: one suite per
// sub-seed, with its request streams generated. A sub-seed at which a
// baseline cannot be planned is skipped for the next candidate.
func setupGrid(g *gridSpec, seed uint64) ([]gridInputs, error) {
	inputs := make([]gridInputs, g.subSeeds)
	for j := range inputs {
		cand := subSeed(seed, j)
		for tries := 0; ; tries++ {
			in, err := g.prepare(experiment.NewSuiteWith(quickConfig(cand)))
			if errors.Is(err, errInfeasible) && tries < 16 {
				cand = splitmix64(cand)
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("%s set-up at seed %d: %w", g.name, cand, err)
			}
			in.seed = cand
			inputs[j] = in
			break
		}
	}
	return inputs, nil
}

// runGrid runs a janusbench grid workload: repeated set-up, then passes
// over the run's input sets until the time is up, then the probes.
func runGrid(rc runConfig, g *gridSpec, rec *Recorder) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	var inputs []gridInputs
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		id := rec.Start("experiment.setup", "setup", 0)
		start := time.Now()
		var err error
		if inputs, err = setupGrid(g, rc.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		rec.End(id)
		if rec != nil {
			break // the traced run reports no set-up time
		}
	}
	digests := make(map[uint64]string)
	check := func(in gridInputs, o *gridOutcome) {
		for _, p := range o.problems {
			out.fail("seed %d: %s", in.seed, p)
		}
		if prev, ok := digests[in.seed]; ok && prev != o.digest {
			out.fail("seed %d: digest %.12s differs from an earlier pass's %.12s", in.seed, o.digest, prev)
		}
		if _, ok := digests[in.seed]; !ok {
			digests[in.seed] = o.digest
			if err := checkDigest(filepath.Join(rc.out, "digests"), g.name, in.seed, o.digest); err != nil {
				out.fail("%v", err)
			}
		}
		if len(o.problems) > 0 {
			out.failed++
		}
	}
	if rec != nil {
		return out, traceGrid(rc, g, inputs[0], rec, out, check)
	}

	// Passes go round-robin over the input sets until the time is up,
	// each set at least once. A grid's cost swings with the seed (fleet
	// passes take 1.6-2.8 s by seed), so wall_s is the mean over the sets
	// of each set's median pass: the workload's expected pass, not one
	// draw's.
	deadline := time.Now().Add(rc.seconds)
	walls := make([][]time.Duration, len(inputs))
	outs := make([]*gridOutcome, len(inputs))
	var all []time.Duration
	for i := 0; i < len(inputs) || time.Now().Before(deadline); i++ {
		k := i % len(inputs)
		o, _, wall, err := g.pass(inputs[k], nil)
		out.attempted++
		if err != nil {
			out.failed++
			out.fail("%v", err)
			continue
		}
		check(inputs[k], o)
		walls[k] = append(walls[k], wall)
		all = append(all, wall)
		outs[k] = o
	}
	var wallSum, att, mc float64
	for k, o := range outs {
		if o == nil {
			return nil, fmt.Errorf("%s: every pass at seed %d failed: %v", g.name, inputs[k].seed, out.problems)
		}
		wallSum += median(seconds(walls[k]))
		att += o.janusAtt
		mc += o.janusMc
	}
	n := float64(len(inputs))
	m := out.metrics
	m["setup_s"] = median(seconds(setups))
	m["wall_s"] = wallSum / n
	m["sim.slo_attainment"] = att / n
	m["sim.mean_millicores"] = mc / n
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes over %d seeds, wall %.3fs (%.3f to %.3f)\n",
		g.name, len(all), len(inputs), m["wall_s"], slices.Min(all).Seconds(), slices.Max(all).Seconds())
	return out, nil
}

// traceGrid is the traced run: untraced and traced passes alternate on
// the first input set until the time is up, then the probes run. The
// simulated digest of every pass, traced or not, must agree.
func traceGrid(rc runConfig, g *gridSpec, in gridInputs, rec *Recorder, out *outcome, check func(gridInputs, *gridOutcome)) error {
	deadline := time.Now().Add(rc.seconds)
	var plain, traced []time.Duration
	var lastOut *gridOutcome
	var last *experiment.Suite
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var r *Recorder
		if i%2 == 1 {
			r = rec
		}
		o, s, wall, err := g.pass(in, r)
		out.attempted++
		if err != nil {
			out.failed++
			out.fail("%v", err)
			continue
		}
		check(in, o)
		if r != nil {
			traced = append(traced, wall)
		} else {
			plain = append(plain, wall)
		}
		lastOut, last = o, s
	}
	if lastOut == nil || len(traced) == 0 || len(plain) == 0 {
		return fmt.Errorf("%s: traced run failed: %v", g.name, out.problems)
	}
	if err := regenProbe(last, lastOut.swaps, rec); err != nil {
		return err
	}
	bundles, err := g.bundles(last)
	if err != nil {
		return err
	}
	id := rec.Start("adapter.decide_probe", "probe", 0)
	perDecide, err := timeDecides(bundles, drawDecides(rc.seed, bundles, probeDecides))
	rec.End(id)
	if err != nil {
		return err
	}

	rss, err := procStatusMB(strconv.Itoa(os.Getpid()), "VmHWM")
	if err != nil {
		return err
	}
	spans := rec.Spans()
	n := float64(len(traced))
	m := out.metrics
	m["peak_rss_mb"] = rss
	profBusy, profCalls := busy(spans, "pass", "profile.Profiles")
	deployBusy, deployCalls := busy(spans, "pass", "synth.Deployment")
	serve, _ := busy(spans, "pass", "platform.grid")
	regen, _ := busy(spans, "probe", "synth.regen")
	m["profile.busy_s"] = profBusy.Seconds() / n
	m["profile.calls"] = float64(profCalls) / n
	m["synth.deploy_busy_s"] = deployBusy.Seconds() / n
	m["synth.deploy_calls"] = float64(deployCalls) / n
	m["synth.regen_busy_s"] = regen.Seconds()
	m["synth.regen_calls"] = float64(len(lastOut.swaps))
	m["synth.regen_useful_ratio"] = distinctRatio(lastOut.swaps)
	m["platform.serve_s"] = serve.Seconds() / n
	m["platform.engine_s"] = m["platform.serve_s"] - m["synth.regen_busy_s"]
	m["platform.sim_requests"] = float64(lastOut.simRequests)
	m["platform.host_us_per_sim_req"] = m["platform.engine_s"] * 1e6 / float64(lastOut.simRequests)
	m["platform.parked"] = float64(lastOut.parked)
	m["platform.cold_starts"] = float64(lastOut.coldStarts)
	m["platform.pod_seconds"] = lastOut.podSeconds
	m["platform.peak_pods"] = float64(lastOut.peakPods)
	m["autoscale.pool_churn"] = float64(lastOut.churn)
	m["autoscale.swaps"] = float64(len(lastOut.swaps))
	m["adapter.decisions"] = float64(lastOut.decisions)
	m["adapter.hit_ratio"] = 1 - failRatio(lastOut.decisions, lastOut.misses)
	m["adapter.decide_ns"] = median(perDecide)
	m["obs.trace_overhead_ratio"] = median(seconds(traced)) / median(seconds(plain))
	m["fail_ratio"] = failRatio(out.attempted, out.failed)
	for layer, d := range selfTimes(spans, "pass") {
		m["self_s."+layer] = d.Seconds() / n
	}
	return nil
}
