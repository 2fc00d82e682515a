// Package synth implements Janus's Synthesizer (§IV): offline generation of
// hints tables (Algorithm 1) followed by condensing (Algorithm 2, in
// package hints).
//
// Hints are synthesized per decision group of the workflow DAG (see
// workflow.DecisionGroups): the sub-workflow a table covers is the group's
// descendant cone, layered by critical-path depth into a sequential
// composite chain (profile.Set.ConeProfiles). For a chain the cones are
// the classic node suffixes; for a series-parallel workflow they are the
// stage suffixes of the effective chain; for an arbitrary DAG each layer's
// latency is the pointwise max over its groups — a conservative upper
// bound on the cone's max-over-paths latency.
//
// For every cone and every candidate time budget t (explored at
// millisecond granularity across the Eq. 3 range), the synthesizer solves
//
//	min  W*k1 + (p/100)*sum(ki) + (1-p/100)*(N-1)*Kmax      (Eq. 4)
//	s.t. L1(p, k1) + sum Li(99, ki) <= t                     (Eq. 5)
//	     D1(p, k1) <= sum Ri(99, ki)                         (Eq. 6)
//
// where only the head (the cone's own group) explores percentiles below 99
// (Insight-2, "moderate percentile exploration"), the head's potential
// overrun (timeout D) must fit inside the downstream layers' compression
// headroom (resilience R, Insight-3), and the head weight W calibrates the
// local objective against the whole-workflow objective (Insight-4).
//
// Downstream allocations at P99 are a classic budget-split problem solved
// once per cone by dynamic programming over (layer suffix, budget in ms);
// the DP also tracks each solution's total resilience so the Eq. 6 check
// is O(1). Among downstream plans of equal total cost the DP keeps the one
// with the largest total resilience: Algorithm 1's generate() picks an
// arbitrary minimum-resource plan, and preferring the most resilient of
// them maximizes the head's exploration room at no extra cost (a
// deterministic strengthening of the paper's pseudo-code).
package synth

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"janus/internal/hints"
	"janus/internal/profile"
)

// Mode selects the percentile exploration strategy.
type Mode int

const (
	// ModeJanus explores diverse percentiles for the head function only.
	ModeJanus Mode = iota
	// ModeJanusMinus fixes every function at P99 (the ablation the paper
	// calls Janus-).
	ModeJanusMinus
	// ModeJanusPlus extends exploration to the head and the next-to-head
	// function (Janus+): slightly better plans at a much higher synthesis
	// cost (§V-C).
	ModeJanusPlus
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeJanus:
		return "janus"
	case ModeJanusMinus:
		return "janus-"
	case ModeJanusPlus:
		return "janus+"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterizes a Synthesizer.
type Config struct {
	// Profiles is the workflow's per-group profile set at one batch size.
	Profiles *profile.Set
	// Weight is the head-function weight W (Insight-4); default 1.
	Weight float64
	// Mode selects Janus / Janus- / Janus+.
	Mode Mode
	// BudgetStepMs is the budget sweep granularity; default 1 ms (the
	// paper's "finer granularity in milliseconds").
	BudgetStepMs int
	// BudgetOverrideMs optionally replaces the Eq. 3 range for the whole
	// workflow (group 0's cone), as the paper does per-testbed (§V-F).
	// Zero values mean "use Eq. 3".
	BudgetOverrideMs [2]int
	// BudgetFloorMs optionally extends every cone's exploration range
	// downward to this floor (in ms). Online regeneration sets it to the
	// smallest remaining budget the adapter observed, so a bundle
	// re-synthesized under drifted traffic covers the tight budgets the
	// deployed one was missing on; budgets below the cone's minimum
	// feasible latency still yield no hint. Zero means no extension.
	BudgetFloorMs int
	// Parallelism bounds the worker goroutines sweeping budgets; default
	// GOMAXPROCS.
	Parallelism int
}

// Synthesizer generates hints for one (workflow, batch, weight, mode).
type Synthesizer struct {
	cfg Config
	set *profile.Set
	// programs holds one budget-split program per decision group, each
	// over the group's layered descendant cone.
	programs []*coneProgram
	// shaped holds one variant program per (group, resolved shape) of a
	// dynamic workflow: the group's cone with its head swapped for the
	// width-variant composite. Downstream layers — futures unresolved at
	// the decision instant — keep the conservative base, so every
	// variant shares the base program's P99 DP.
	shaped map[int]map[string]*coneProgram
}

// coneProgram is the Algorithm 1 machinery for one decision group's cone:
// the layered profile sequence (head first) plus the downstream P99 DP.
type coneProgram struct {
	cfg      Config
	profiles []*profile.FunctionProfile
	levels   []int
	kmax     int
	// tmin/tmax are the cone's Eq. 3 exploration bounds, computed once
	// from the layered profile sequence.
	tmin, tmax int
	maxMs      int
	// downKmaxMs is the P99 execution time of layers 1.. with every
	// layer at Kmax — the floor the head percentile filter compares
	// against.
	downKmaxMs int
	// dp[j][t]: minimal total millicores provisioning layers j.. within
	// budget t ms, all at P99; -1 when infeasible.
	dp [][]int32
	// choiceIdx[j][t]: grid index of layer j's allocation in dp's optimum.
	choiceIdx [][]int16
	// resil[j][t]: total resilience (ms) sum_i R_i(99, k_i) of dp's
	// optimal plan for layers j.. at budget t.
	resil [][]int32
}

// Result carries a generated bundle plus the bookkeeping the evaluation
// reports: per-cone raw hint counts (pre-condensing), condensed counts,
// and wall-clock synthesis time (Fig 6b, Fig 8).
type Result struct {
	Bundle          *hints.Bundle
	RawCounts       []int
	CondensedCounts []int
	Elapsed         time.Duration
}

// New validates the configuration and precomputes the per-cone downstream
// DPs.
func New(cfg Config) (*Synthesizer, error) {
	if cfg.Profiles == nil || cfg.Profiles.Len() == 0 {
		return nil, fmt.Errorf("synth: profiles required")
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	if cfg.Weight < 0 {
		return nil, fmt.Errorf("synth: negative weight %v", cfg.Weight)
	}
	if cfg.BudgetStepMs == 0 {
		cfg.BudgetStepMs = 1
	}
	if cfg.BudgetStepMs < 0 {
		return nil, fmt.Errorf("synth: negative budget step")
	}
	if cfg.Mode != ModeJanus && cfg.Mode != ModeJanusMinus && cfg.Mode != ModeJanusPlus {
		return nil, fmt.Errorf("synth: unknown mode %d", int(cfg.Mode))
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.BudgetOverrideMs[0] < 0 || cfg.BudgetOverrideMs[1] < cfg.BudgetOverrideMs[0] {
		return nil, fmt.Errorf("synth: invalid budget override %v", cfg.BudgetOverrideMs)
	}
	if cfg.BudgetFloorMs < 0 {
		return nil, fmt.Errorf("synth: negative budget floor %d", cfg.BudgetFloorMs)
	}
	set := cfg.Profiles
	grid := set.At(0).Grid
	for i := 1; i < set.Len(); i++ {
		if set.At(i).Grid != grid {
			return nil, fmt.Errorf("synth: group %d uses a different grid", i)
		}
	}
	s := &Synthesizer{cfg: cfg, set: set}
	for g := 0; g < set.Len(); g++ {
		seq, err := set.ConeProfiles(g)
		if err != nil {
			return nil, err
		}
		// The cone's Eq. 3 bounds, from the layered sequence itself (the
		// same sums Set.BudgetRangeMs computes, without re-deriving the
		// cone): Tmin = sum L(pMin, Kmax), Tmax = sum L(99, Kmin).
		tmin, tmax, downKmaxMs := 0, 0, 0
		for j, fp := range seq {
			tmin += fp.LMs(fp.Percentiles[0], grid.Max)
			tmax += fp.LMs(99, grid.Min)
			if j > 0 {
				downKmaxMs += fp.LMs(99, grid.Max)
			}
		}
		maxMs := tmax
		if g == 0 && cfg.BudgetOverrideMs[1] > maxMs {
			maxMs = cfg.BudgetOverrideMs[1]
		}
		p := &coneProgram{
			cfg:        cfg,
			profiles:   seq,
			levels:     grid.Levels(),
			kmax:       grid.Max,
			tmin:       tmin,
			tmax:       tmax,
			maxMs:      maxMs,
			downKmaxMs: downKmaxMs,
		}
		p.buildDP()
		s.programs = append(s.programs, p)
	}
	for g, variants := range set.Shaped {
		if g < 0 || g >= set.Len() {
			return nil, fmt.Errorf("synth: shaped profiles for group %d, but workflow has %d groups", g, set.Len())
		}
		for shape, fp := range variants {
			if fp == nil {
				return nil, fmt.Errorf("synth: group %d shape %q profile missing", g, shape)
			}
			if fp.Grid != grid {
				return nil, fmt.Errorf("synth: group %d shape %q uses a different grid", g, shape)
			}
			if s.shaped == nil {
				s.shaped = map[int]map[string]*coneProgram{}
			}
			if s.shaped[g] == nil {
				s.shaped[g] = map[string]*coneProgram{}
			}
			s.shaped[g][shape] = variantProgram(s.programs[g], fp)
		}
	}
	return s, nil
}

// variantProgram derives the budget-split program of one resolved shape
// from the group's base program: the head profile is swapped for the
// shape variant and the Eq. 3 bounds recomputed, while the downstream
// layers — and therefore the P99 DP, which never reads the head — are
// shared with the base. The sweep stays clamped to the base's table
// width, which is safe because a resolved shape can only shrink the head
// (a prefix max over fewer replicas), never outgrow the worst case.
func variantProgram(base *coneProgram, head *profile.FunctionProfile) *coneProgram {
	seq := append([]*profile.FunctionProfile(nil), base.profiles...)
	seq[0] = head
	tmin, tmax := 0, 0
	for _, fp := range seq {
		tmin += fp.LMs(fp.Percentiles[0], fp.Grid.Max)
		tmax += fp.LMs(99, fp.Grid.Min)
	}
	if tmax > base.maxMs {
		tmax = base.maxMs
	}
	return &coneProgram{
		cfg:        base.cfg,
		profiles:   seq,
		levels:     base.levels,
		kmax:       base.kmax,
		tmin:       tmin,
		tmax:       tmax,
		maxMs:      base.maxMs,
		downKmaxMs: base.downKmaxMs,
		dp:         base.dp,
		choiceIdx:  base.choiceIdx,
		resil:      base.resil,
	}
}

// buildDP fills dp/choiceIdx/resil bottom-up over the cone's layer
// suffixes.
func (p *coneProgram) buildDP() {
	n := len(p.profiles)
	p.dp = make([][]int32, n+1)
	p.choiceIdx = make([][]int16, n+1)
	p.resil = make([][]int32, n+1)
	width := p.maxMs + 1
	p.dp[n] = make([]int32, width) // all zero: nothing left to provision
	p.resil[n] = make([]int32, width)
	for j := n - 1; j >= 0; j-- {
		fp := p.profiles[j]
		p.dp[j] = make([]int32, width)
		p.choiceIdx[j] = make([]int16, width)
		p.resil[j] = make([]int32, width)
		l99 := p99Row(fp)
		l99AtMax := l99[len(l99)-1]
		for t := 0; t < width; t++ {
			best := int32(-1)
			bestKi := int16(-1)
			var bestRes int32
			for ki := len(p.levels) - 1; ki >= 0; ki-- {
				lat := l99[ki]
				if lat > t {
					break // latencies grow as ki shrinks; nothing smaller fits
				}
				down := p.dp[j+1][t-lat]
				if down < 0 {
					continue
				}
				cand := int32(p.levels[ki]) + down
				candRes := int32(lat-l99AtMax) + p.resil[j+1][t-lat]
				if best < 0 || cand < best || (cand == best && candRes > bestRes) {
					best = cand
					bestKi = int16(ki)
					bestRes = candRes
				}
			}
			p.dp[j][t] = best
			p.choiceIdx[j][t] = bestKi
			p.resil[j][t] = bestRes
		}
	}
}

// planP99 materializes the DP's optimal P99 allocation for layers j.. at
// budget tMs into dst (which must have capacity for the suffix length).
func (p *coneProgram) planP99(j, tMs int, dst []int) []int {
	dst = dst[:0]
	for layer := j; layer < len(p.profiles); layer++ {
		ki := p.choiceIdx[layer][tMs]
		if ki < 0 {
			panic(fmt.Sprintf("synth: planP99 called on infeasible state (%d, %d)", layer, tMs))
		}
		dst = append(dst, p.levels[ki])
		tMs -= p99Row(p.profiles[layer])[ki]
	}
	return dst
}

// p99Row returns fp's P99 latencies across the grid levels. The profile
// package keeps percentiles strictly increasing and requires 99, so P99
// is always the last row.
func p99Row(fp *profile.FunctionProfile) []int {
	return fp.LatencyMs[len(fp.LatencyMs)-1]
}

// candidate is one feasible head decision during generation.
type candidate struct {
	cost float64
	p    int
	k    int
	// downBudgetMs is the budget handed to the downstream DP (or -1 for
	// single-layer cones).
	downBudgetMs int
	// secondP/secondK record the Janus+ next-to-head exploration.
	secondP, secondK  int
	secondDownBudget  int
	secondExploration bool
}

// better orders candidates: lower cost wins; ties prefer the safer (higher)
// percentile, then the smaller head allocation — a total, deterministic
// order.
func (c candidate) better(o candidate) bool {
	const eps = 1e-9
	if c.cost < o.cost-eps {
		return true
	}
	if c.cost > o.cost+eps {
		return false
	}
	if c.p != o.p {
		return c.p > o.p
	}
	return c.k < o.k
}

// GenerateSuffix runs Algorithm 1 for the sub-workflow headed by decision
// group `suffix` (its descendant cone), sweeping the budget range at the
// configured step. The name is kept from the chain era: for a chain the
// cone of group i is exactly the node suffix i.. of the chain.
func (s *Synthesizer) GenerateSuffix(suffix int) (*hints.RawTable, error) {
	if suffix < 0 || suffix >= s.set.Len() {
		return nil, fmt.Errorf("synth: suffix %d out of range [0, %d)", suffix, s.set.Len())
	}
	return s.generateTable(s.programs[suffix], suffix)
}

// generateTable sweeps one cone program's budget range — base or shape
// variant — into a raw table carrying the given suffix index.
func (s *Synthesizer) generateTable(prog *coneProgram, suffix int) (*hints.RawTable, error) {
	tmin, tmax := prog.tmin, prog.tmax
	if suffix == 0 && s.cfg.BudgetOverrideMs != [2]int{} {
		tmin, tmax = s.cfg.BudgetOverrideMs[0], s.cfg.BudgetOverrideMs[1]
	}
	if tmax > prog.maxMs {
		tmax = prog.maxMs
	}
	step := s.cfg.BudgetStepMs
	var budgets []int
	if floor := s.cfg.BudgetFloorMs; floor > 0 && floor < tmin {
		// Extend the sweep downward to the observed floor, anchored at
		// tmin so every original budget stays on the grid: the floor adds
		// coverage below the original minimum without re-pricing above
		// it. The step count rounds up so the first extended budget lands
		// at or below the floor — a floor inside the last step would
		// otherwise stay uncovered and keep missing after the swap.
		k := (tmin - floor + step - 1) / step
		for t := tmin - k*step; t < tmin; t += step {
			if t < 1 {
				continue
			}
			budgets = append(budgets, t)
		}
	}
	for t := tmin; t <= tmax; t += step {
		budgets = append(budgets, t)
	}
	out := make([]*hints.Hint, len(budgets))
	var wg sync.WaitGroup
	workers := s.cfg.Parallelism
	if workers > len(budgets) {
		workers = len(budgets)
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (len(budgets) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(budgets) {
			hi = len(budgets)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			planBuf := make([]int, 0, len(prog.profiles))
			for i := lo; i < hi; i++ {
				out[i] = prog.generateOne(budgets[i], planBuf)
			}
		}(lo, hi)
	}
	wg.Wait()
	rt := &hints.RawTable{Suffix: suffix, Weight: s.cfg.Weight}
	for _, h := range out {
		if h != nil {
			rt.Hints = append(rt.Hints, *h)
		}
	}
	if err := rt.Validate(); err != nil {
		return nil, err
	}
	return rt, nil
}

// generateOne solves the Eq. 4-8 program for the cone at one budget.
func (p *coneProgram) generateOne(tMs int, planBuf []int) *hints.Hint {
	head := p.profiles[0]
	nRem := len(p.profiles)
	// Single-layer cone: min_resource at P99 — there is no downstream
	// resilience to absorb a timeout.
	if nRem == 1 {
		k, ok := head.MinCoresWithin(99, time.Duration(tMs)*time.Millisecond)
		if !ok {
			return nil
		}
		return &hints.Hint{
			BudgetMs:       tMs,
			HeadMillicores: k,
			HeadPercentile: 99,
			PlanMillicores: []int{k},
			ExpectedCost:   p.cfg.Weight * float64(k),
		}
	}
	// explore_percentile: the head percentiles whose Kmax execution keeps
	// the cone within the budget. Janus- considers P99 only, the last row.
	kmaxIdx := len(p.levels) - 1
	rows := head.LatencyMs
	p99 := p99Row(head)
	pcts := head.Percentiles
	if p.cfg.Mode == ModeJanusMinus {
		rows, pcts = rows[len(rows)-1:], pcts[len(pcts)-1:]
	}
	dp1, resil1 := p.dp[1], p.resil[1]
	best := candidate{cost: -1}
	for pi, pct := range pcts {
		row := rows[pi]
		if row[kmaxIdx]+p.downKmaxMs > tMs {
			continue
		}
		for ki, k := range p.levels {
			downBudget := tMs - row[ki]
			if downBudget < 0 {
				continue
			}
			timeout := int32(p99[ki] - row[ki])
			if p.cfg.Mode == ModeJanusPlus && nRem >= 3 {
				if c, ok := p.exploreSecond(pct, k, timeout, downBudget); ok {
					if best.cost < 0 || c.better(best) {
						best = c
					}
				}
				continue
			}
			down := dp1[downBudget]
			if down < 0 {
				continue
			}
			if timeout > resil1[downBudget] {
				continue // Eq. 6: downstream cannot absorb the overrun
			}
			pf := float64(pct) / 100
			cost := p.cfg.Weight*float64(k) + pf*float64(down) + (1-pf)*float64(nRem-1)*float64(p.kmax)
			c := candidate{cost: cost, p: pct, k: k, downBudgetMs: downBudget}
			if best.cost < 0 || c.better(best) {
				best = c
			}
		}
	}
	if best.cost < 0 {
		return nil
	}
	plan := []int{best.k}
	if best.secondExploration {
		plan = append(plan, best.secondK)
		plan = append(plan, p.planP99(2, best.secondDownBudget, planBuf)...)
	} else if best.downBudgetMs >= 0 {
		plan = append(plan, p.planP99(1, best.downBudgetMs, planBuf)...)
	}
	return &hints.Hint{
		BudgetMs:       tMs,
		HeadMillicores: best.k,
		HeadPercentile: best.p,
		PlanMillicores: plan,
		ExpectedCost:   best.cost,
	}
}

// exploreSecond is the Janus+ extension: the next-to-head layer also
// explores percentiles. The head's timeout (headTimeout, D1(p1, k1)) must
// fit in the second layer's own resilience plus the rest's; the second's
// timeout must fit in the rest's.
func (p *coneProgram) exploreSecond(p1, k1 int, headTimeout int32, budget1 int) (candidate, bool) {
	second := p.profiles[1]
	nRem := len(p.profiles)
	dp2, resil2 := p.dp[2], p.resil[2]
	kmaxIdx := len(p.levels) - 1
	p99 := p99Row(second)
	pf1 := float64(p1) / 100
	best := candidate{cost: -1}
	for pi, p2 := range second.Percentiles {
		row := second.LatencyMs[pi]
		for ki, k2 := range p.levels {
			restBudget := budget1 - row[ki]
			if restBudget < 0 {
				continue
			}
			rest := dp2[restBudget]
			if rest < 0 {
				continue
			}
			restRes := resil2[restBudget]
			if int32(p99[ki]-row[ki]) > restRes {
				continue
			}
			secondRes := int32(row[ki] - row[kmaxIdx])
			if headTimeout > secondRes+restRes {
				continue
			}
			pf2 := float64(p2) / 100
			inner := float64(k2) + pf2*float64(rest) + (1-pf2)*float64(nRem-2)*float64(p.kmax)
			cost := p.cfg.Weight*float64(k1) + pf1*inner + (1-pf1)*float64(nRem-1)*float64(p.kmax)
			c := candidate{
				cost: cost, p: p1, k: k1,
				secondP: p2, secondK: k2, secondDownBudget: restBudget,
				secondExploration: true,
			}
			if best.cost < 0 || c.better(best) {
				best = c
			}
		}
	}
	return best, best.cost >= 0
}

// GenerateBundle generates and condenses tables for every decision group's
// cone.
func (s *Synthesizer) GenerateBundle() (*Result, error) {
	start := time.Now()
	n := s.set.Len()
	res := &Result{
		Bundle: &hints.Bundle{
			Workflow:      s.set.Workflow.Name(),
			Batch:         s.set.Batch,
			Weight:        s.cfg.Weight,
			SLOMs:         int(s.set.Workflow.SLO() / time.Millisecond),
			MaxMillicores: s.set.At(0).Grid.Max,
		},
	}
	for i := 0; i < n; i++ {
		raw, err := s.GenerateSuffix(i)
		if err != nil {
			return nil, err
		}
		tab, err := hints.Condense(raw)
		if err != nil {
			return nil, err
		}
		tab.Workflow = s.set.Workflow.Name()
		tab.Batch = s.set.Batch
		res.Bundle.Tables = append(res.Bundle.Tables, tab)
		res.RawCounts = append(res.RawCounts, len(raw.Hints))
		res.CondensedCounts = append(res.CondensedCounts, tab.Size())
	}
	for g, variants := range s.shaped {
		for shape, prog := range variants {
			raw, err := s.generateTable(prog, g)
			if err != nil {
				return nil, err
			}
			tab, err := hints.Condense(raw)
			if err != nil {
				return nil, err
			}
			tab.Workflow = s.set.Workflow.Name()
			tab.Batch = s.set.Batch
			if res.Bundle.Shaped == nil {
				res.Bundle.Shaped = map[int]map[string]*hints.Table{}
			}
			if res.Bundle.Shaped[g] == nil {
				res.Bundle.Shaped[g] = map[string]*hints.Table{}
			}
			res.Bundle.Shaped[g][shape] = tab
		}
	}
	if err := res.Bundle.Validate(); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
