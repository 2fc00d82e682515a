package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"sort"
	"time"

	"janus/internal/baseline"
	"janus/internal/experiment"
	"janus/internal/hints"
	"janus/internal/platform"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// quickConfig is experiment.QuickSuite's scale with the seed left to the
// caller: the same code paths as the paper scale at ~20x less work.
func quickConfig(seed uint64) experiment.Config {
	return experiment.Config{Seed: seed, ProfilerSamples: 600, BudgetStepMs: 20, Requests: 200, ArrivalRatePerSec: 2}
}

// regenWeight is the head weight the fleet grid's online regeneration
// re-synthesizes with (experiment's replayRegenWeight); the regen probe
// repeats those syntheses.
const regenWeight = 0.5

// deploy names one Janus deployment a grid uses.
type deploy struct {
	wf   *workflow.Workflow
	mode synth.Mode
}

// gridSpec is one janusbench grid workload.
type gridSpec struct {
	name string
	// subSeeds is how many suite seeds one run goes round-robin over,
	// sized so that about one round of passes fits a run.
	subSeeds  int
	workflows []*workflow.Workflow
	deploys   []deploy
	// prepare generates the grid's inputs for one suite: what set-up
	// pays before the first pass. It returns errInfeasible when a
	// baseline allocator cannot be built at that seed.
	prepare func(s *experiment.Suite) (gridInputs, error)
	// run calls the grid's entry points once and checks conservation.
	run func(s *experiment.Suite, in gridInputs) (*gridOutcome, error)
}

// gridInputs is what set-up derived from one suite seed.
type gridInputs struct {
	seed uint64
	// arrivals is the request count every configuration of the grid must
	// account for.
	arrivals int
}

var errInfeasible = errors.New("a baseline cannot meet its SLO at this seed")

// gridOutcome is one pass's simulated result, reduced to what the
// benchmark checks and reports. None of it depends on host timing.
type gridOutcome struct {
	digest      string
	janusAtt    float64
	janusMc     float64
	simRequests int
	decisions   int
	misses      int
	parked      int
	coldStarts  int
	podSeconds  float64
	peakPods    int
	churn       int
	swaps       []swapInput
	problems    []string
}

// swapInput is one regen hot-swap's synthesis input.
type swapInput struct {
	tenant  string
	floorMs int
}

func gridSpecs() (map[string]*gridSpec, error) {
	replayTenants, err := experiment.ReplayTenants()
	if err != nil {
		return nil, err
	}
	mixTenants, err := experiment.MixTenants()
	if err != nil {
		return nil, err
	}
	trig, err := experiment.TriggerWorkflow()
	if err != nil {
		return nil, err
	}
	fleet := &gridSpec{name: "fleet", subSeeds: 12, prepare: prepareFleet, run: runFleet}
	for _, mt := range replayTenants {
		fleet.workflows = append(fleet.workflows, mt.Workflow)
		fleet.deploys = append(fleet.deploys, deploy{mt.Workflow, synth.ModeJanus})
	}
	mix := &gridSpec{name: "mix", subSeeds: 5, run: runMix}
	mix.prepare = func(s *experiment.Suite) (gridInputs, error) { return prepareMix(s, mixTenants) }
	for _, mt := range mixTenants {
		mix.workflows = append(mix.workflows, mt.Workflow)
		for _, m := range []synth.Mode{synth.ModeJanus, synth.ModeJanusPlus, synth.ModeJanusMinus} {
			mix.deploys = append(mix.deploys, deploy{mt.Workflow, m})
		}
	}
	trigger := &gridSpec{
		name: "trigger", subSeeds: 64,
		workflows: []*workflow.Workflow{trig},
		deploys:   []deploy{{trig, synth.ModeJanus}},
		prepare:   prepareTrigger,
		run:       runTrigger,
	}
	return map[string]*gridSpec{"fleet": fleet, "mix": mix, "trigger": trigger}, nil
}

func prepareFleet(s *experiment.Suite) (gridInputs, error) {
	sched, err := s.FleetSchedule()
	if err != nil {
		return gridInputs{}, err
	}
	return gridInputs{arrivals: len(sched.Arrivals())}, nil
}

// prepareMix generates every tenant's request stream and checks that the
// early-binding baselines can be built at all: at a few seeds the
// profiled IA chain cannot meet its SLO even at the largest allocation,
// and GrandSLAM refuses to plan it.
func prepareMix(s *experiment.Suite, tenants []experiment.MixTenant) (gridInputs, error) {
	n := 0
	for _, mt := range tenants {
		reqs, err := s.Workload(mt.Workflow, 1)
		if err != nil {
			return gridInputs{}, err
		}
		n += len(reqs)
		set, err := s.Profiles(mt.Workflow, 1)
		if err != nil {
			return gridInputs{}, err
		}
		if _, err := baseline.GrandSLAM(set, mt.Workflow.SLO()); err != nil {
			return gridInputs{}, fmt.Errorf("%w: %v", errInfeasible, err)
		}
		if _, err := baseline.GrandSLAMPlus(set, mt.Workflow.SLO()); err != nil {
			return gridInputs{}, fmt.Errorf("%w: %v", errInfeasible, err)
		}
	}
	return gridInputs{arrivals: n}, nil
}

func prepareTrigger(s *experiment.Suite) (gridInputs, error) {
	w, err := experiment.TriggerWorkflow()
	if err != nil {
		return gridInputs{}, err
	}
	reqs, err := s.WorkloadAtRate(w, 1, experiment.TriggerRatePerSec)
	if err != nil {
		return gridInputs{}, err
	}
	return gridInputs{arrivals: len(reqs)}, nil
}

func runFleet(s *experiment.Suite, in gridInputs) (*gridOutcome, error) {
	runs, err := s.FleetScenario()
	if err != nil {
		return nil, err
	}
	out := &gridOutcome{}
	h := sha256.New()
	for _, r := range runs {
		out.addReplayRun(h, in, r.Config, r.Rows, r.Aggregate.Requests, r.Traces)
		fmt.Fprintf(h, "%s|%+v|%+v|%+v\n", r.Config, r.Rows, r.Aggregate, r.Metrics)
		out.podSeconds += r.Metrics.PodSeconds
		out.peakPods = max(out.peakPods, r.Metrics.PeakPods)
		out.churn += r.Metrics.PoolGrown + r.Metrics.PoolShrunk
		tenants := make([]string, 0, len(r.Swaps))
		for t := range r.Swaps {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			for _, sw := range r.Swaps[t] {
				fmt.Fprintf(h, "swap %s %+v\n", t, sw)
				out.swaps = append(out.swaps, swapInput{t, sw.FloorMs})
			}
		}
		if r.Config == experiment.ReplayAutoscaleRegen {
			out.janusAtt, out.janusMc = r.Aggregate.SLOAttainment, r.Aggregate.MeanMillicores
		}
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil))
	return out, nil
}

// addReplayRun folds one schedule-driven run into the outcome and checks
// request conservation: the per-tenant rows sum to the aggregate, and the
// aggregate to the arrivals set-up generated.
func (out *gridOutcome) addReplayRun(h hash.Hash, in gridInputs, config string, rows []experiment.ReplayRow, aggregate int, traces map[string][]platform.Trace) {
	sum := 0
	for _, row := range rows {
		sum += row.Requests
		out.parked += row.Parked
		out.coldStarts += row.ColdStarts
	}
	if sum != aggregate || aggregate != in.arrivals {
		out.problems = append(out.problems, fmt.Sprintf("%s: rows sum to %d, aggregate %d, arrivals %d", config, sum, aggregate, in.arrivals))
	}
	out.simRequests += aggregate
	for _, ts := range traces {
		out.countDecisions(ts)
	}
}

func (out *gridOutcome) countDecisions(ts []platform.Trace) {
	for i := range ts {
		out.decisions += ts[i].Decisions
		out.misses += ts[i].Misses
	}
}

func runMix(s *experiment.Suite, in gridInputs) (*gridOutcome, error) {
	scenario, err := s.MixScenario()
	if err != nil {
		return nil, err
	}
	placement, err := s.MixPlacement()
	if err != nil {
		return nil, err
	}
	scaleOut, err := s.MixScaleOut()
	if err != nil {
		return nil, err
	}
	out := &gridOutcome{}
	h := sha256.New()
	seen := make(map[*experiment.MixRun]bool)
	for _, r := range append(append(scenario, placement...), scaleOut...) {
		fmt.Fprintf(h, "%s|%d|%s|%+v|%+v\n", r.System, r.Nodes, r.Placement, r.Tenants, r.Aggregate)
		if seen[r] {
			continue // the suite's run cache hands shared specs back once more
		}
		seen[r] = true
		n := 0
		for _, ts := range r.Traces {
			n += len(ts)
			out.countDecisions(ts)
		}
		if n != in.arrivals {
			out.problems = append(out.problems, fmt.Sprintf("%s n%d %s: %d traces for %d arrivals", r.System, r.Nodes, r.Placement, n, in.arrivals))
		}
		out.simRequests += n
		for _, t := range r.Tenants {
			out.parked += t.Parked
			out.coldStarts += t.ColdStarts
		}
	}
	for _, r := range scenario {
		if r.System == experiment.SysJanus {
			out.janusAtt, out.janusMc = 1-r.Aggregate.ViolationRate, r.Aggregate.MeanMillicores
		}
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil))
	return out, nil
}

func runTrigger(s *experiment.Suite, in gridInputs) (*gridOutcome, error) {
	runs, err := s.TriggerScenario()
	if err != nil {
		return nil, err
	}
	out := &gridOutcome{}
	h := sha256.New()
	for _, r := range runs {
		out.addReplayRun(h, in, r.Config, r.Rows, r.Aggregate.Requests, map[string][]platform.Trace{"": r.Traces})
		fmt.Fprintf(h, "%s|%d|%+v|%+v|%+v\n", r.Config, r.TimerStarted, r.Rows, r.Aggregate, r.Metrics)
		out.podSeconds += r.Metrics.PodSeconds
		out.peakPods = max(out.peakPods, r.Metrics.PeakPods)
		if r.Config == experiment.TriggerShapeAware {
			out.janusAtt, out.janusMc = r.Aggregate.SLOAttainment, r.Aggregate.MeanMillicores
		}
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil))
	return out, nil
}

// pass runs the grid once on a fresh suite, so every pass pays for
// profiling, synthesis and serving exactly as a janusbench invocation
// does. Traced, it first calls Profiles and then Deployment for every
// input the grid uses, so each layer's lazy cache fill lands in its own
// span, and the grid call that follows serves from warm caches.
func (g *gridSpec) pass(in gridInputs, rec *Recorder) (*gridOutcome, *experiment.Suite, time.Duration, error) {
	start := time.Now()
	root := rec.Start("experiment.pass", "pass", 0)
	s := experiment.NewSuiteWith(quickConfig(in.seed))
	if rec != nil {
		for _, w := range g.workflows {
			id := rec.Start("profile.Profiles", "pass", root)
			_, err := s.Profiles(w, 1)
			rec.End(id)
			if err != nil {
				return nil, nil, 0, err
			}
		}
		for _, d := range g.deploys {
			id := rec.Start("synth.Deployment", "pass", root)
			_, err := s.Deployment(d.wf, 1, d.mode, 1)
			rec.End(id)
			if err != nil {
				return nil, nil, 0, err
			}
		}
	}
	id := rec.Start("platform.grid", "pass", root)
	out, err := g.run(s, in)
	rec.End(id)
	rec.End(root)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s seed %d: %w", g.name, in.seed, err)
	}
	return out, s, time.Since(start), nil
}

// bundles returns the deployed bundles of a suite whose caches the grid
// has filled.
func (g *gridSpec) bundles(s *experiment.Suite) ([]*hints.Bundle, error) {
	out := make([]*hints.Bundle, 0, len(g.deploys))
	for _, d := range g.deploys {
		dep, err := s.Deployment(d.wf, 1, d.mode, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, dep.Bundle())
	}
	return out, nil
}

// regenProbe repeats, once each, the syntheses the fleet grid's regen
// hot-swaps performed inside the serving run, each in a span of its own.
func regenProbe(s *experiment.Suite, swaps []swapInput, rec *Recorder) error {
	tenants, err := experiment.ReplayTenants()
	if err != nil {
		return err
	}
	byName := make(map[string]*workflow.Workflow)
	for _, mt := range tenants {
		byName[mt.Tenant] = mt.Workflow
	}
	for _, sw := range swaps {
		set, err := s.Profiles(byName[sw.tenant], 1)
		if err != nil {
			return err
		}
		id := rec.Start("synth.regen", "probe", 0)
		sy, err := synth.New(synth.Config{
			Profiles:      set,
			Weight:        regenWeight,
			Mode:          synth.ModeJanus,
			BudgetStepMs:  quickConfig(0).BudgetStepMs,
			BudgetFloorMs: sw.floorMs,
		})
		if err == nil {
			_, err = sy.GenerateBundle()
		}
		rec.End(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// distinctRatio is distinct regen inputs over swaps: the share of
// re-syntheses that could not have been served from a memo.
func distinctRatio(swaps []swapInput) float64 {
	if len(swaps) == 0 {
		return 0
	}
	seen := make(map[swapInput]bool)
	for _, sw := range swaps {
		seen[sw] = true
	}
	return float64(len(seen)) / float64(len(swaps))
}
