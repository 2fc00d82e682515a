package synth

import (
	"fmt"
	"testing"
	"time"

	"janus/internal/profile"
	"janus/internal/rng"
	"janus/internal/workflow"
)

// Brute-force equivalence: on small synthetic profiles, Algorithm 1's
// DP-based implementation must find exactly the optimum that exhaustive
// enumeration of (p, k1, ..., kN) finds, for every budget.

// synthGrid is small enough to enumerate: 3 allocation levels.
var synthGrid = profile.Grid{Min: 1000, Max: 1200, Step: 100}

// synthPercentiles keeps exploration two-way: one low percentile plus the
// mandatory 99.
var synthPercentiles = []int{50, 99}

// randomProfile builds a random but valid (monotone) latency table.
func randomProfile(t *testing.T, name string, stream *rng.Stream) *profile.FunctionProfile {
	t.Helper()
	levels := synthGrid.Len()
	lat := make([][]int, len(synthPercentiles))
	// Build the P99 row first (larger), then the P50 row below it, both
	// non-increasing in k.
	p99 := make([]int, levels)
	cur := 300 + stream.IntN(700)
	for ki := levels - 1; ki >= 0; ki-- {
		p99[ki] = cur
		cur += stream.IntN(200)
	}
	p50 := make([]int, levels)
	for ki := 0; ki < levels; ki++ {
		p50[ki] = p99[ki] - stream.IntN(p99[ki]/2+1)
		if p50[ki] < 1 {
			p50[ki] = 1
		}
	}
	// Enforce monotonicity in k for the P50 row too.
	for ki := levels - 2; ki >= 0; ki-- {
		if p50[ki] < p50[ki+1] {
			p50[ki] = p50[ki+1]
		}
	}
	lat[0], lat[1] = p50, p99
	fp, err := profile.NewFunctionProfile(name, 1, synthGrid, synthPercentiles, lat)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func randomSet(t *testing.T, n int, seed uint64) *profile.Set {
	t.Helper()
	stream := rng.New(seed)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	w, err := workflow.NewChain("synthetic", 5*time.Second, names...)
	if err != nil {
		t.Fatal(err)
	}
	set := &profile.Set{Workflow: w, Batch: 1}
	for _, name := range names {
		set.Profiles = append(set.Profiles, randomProfile(t, name, stream.Split(name)))
	}
	return set
}

// minDown enumerates the P99 plans of layers from.. within budget and
// returns the minimal total cores plus the best resilience at that total.
func minDown(set *profile.Set, from, budget int) (total, resilience int, ok bool) {
	levels := synthGrid.Levels()
	kmax := synthGrid.Max
	bestTotal, bestRes := -1, -1
	var enumerate func(j, left, coresSum, resSum int)
	enumerate = func(j, left, coresSum, resSum int) {
		if j == set.Len() {
			if bestTotal < 0 || coresSum < bestTotal || (coresSum == bestTotal && resSum > bestRes) {
				bestTotal, bestRes = coresSum, resSum
			}
			return
		}
		fp := set.At(j)
		for _, k := range levels {
			l := fp.LMs(99, k)
			if l > left {
				continue
			}
			enumerate(j+1, left-l, coresSum+k, resSum+(l-fp.LMs(99, kmax)))
		}
	}
	enumerate(from, budget, 0, 0)
	return bestTotal, bestRes, bestTotal >= 0
}

// bruteForce solves the Eq. 4-8 program for one budget by enumeration,
// mirroring Algorithm 1's structure: the downstream functions take the
// minimum-total-cores P99 plan for the budget the head leaves them (tied
// plans resolved toward maximum resilience, matching the DP), and the head
// choice is feasible only if its timeout fits that plan's resilience.
// It returns the minimal expected cost, or -1 when infeasible.
func bruteForce(set *profile.Set, suffix, tMs int, weight float64) float64 {
	n := set.Len() - suffix
	levels := synthGrid.Levels()
	kmax := synthGrid.Max
	if n == 1 {
		fp := set.At(suffix)
		for _, k := range levels {
			if fp.LMs(99, k) <= tMs {
				return weight * float64(k)
			}
		}
		return -1
	}
	downKmax := 0
	for j := suffix + 1; j < set.Len(); j++ {
		downKmax += set.At(j).LMs(99, kmax)
	}
	head := set.At(suffix)

	best := -1.0
	for _, p := range synthPercentiles {
		if head.LMs(p, kmax)+downKmax > tMs {
			continue // explore_percentile filter
		}
		for _, k1 := range levels {
			headL := head.LMs(p, k1)
			if headL > tMs {
				continue
			}
			total, resilience, ok := minDown(set, suffix+1, tMs-headL)
			if !ok || head.TimeoutMs(p, k1) > resilience {
				continue
			}
			pf := float64(p) / 100
			cost := weight*float64(k1) + pf*float64(total) + (1-pf)*float64(n-1)*float64(kmax)
			if best < 0 || cost < best {
				best = cost
			}
		}
	}
	return best
}

// bruteForcePlus is bruteForce for Janus+: on cones of three or more
// layers the next-to-head layer also explores (p2, k2), the layers after
// it take the minimum-cores P99 plan for what is left, the second's
// timeout must fit the rest's resilience, and the head's timeout must fit
// the second's resilience plus the rest's. Shorter cones fall back to
// Janus. It returns the minimal expected cost, or -1 when infeasible.
func bruteForcePlus(set *profile.Set, suffix, tMs int, weight float64) float64 {
	n := set.Len() - suffix
	if n < 3 {
		return bruteForce(set, suffix, tMs, weight)
	}
	levels := synthGrid.Levels()
	kmax := synthGrid.Max
	downKmax := 0
	for j := suffix + 1; j < set.Len(); j++ {
		downKmax += set.At(j).LMs(99, kmax)
	}
	head, second := set.At(suffix), set.At(suffix+1)
	best := -1.0
	for _, p1 := range synthPercentiles {
		if head.LMs(p1, kmax)+downKmax > tMs {
			continue // explore_percentile filter
		}
		for _, k1 := range levels {
			for _, p2 := range synthPercentiles {
				for _, k2 := range levels {
					restBudget := tMs - head.LMs(p1, k1) - second.LMs(p2, k2)
					if restBudget < 0 {
						continue // Eq. 5
					}
					rest, restRes, ok := minDown(set, suffix+2, restBudget)
					if !ok || second.TimeoutMs(p2, k2) > restRes {
						continue
					}
					if head.TimeoutMs(p1, k1) > second.ResilienceMs(p2, k2)+restRes {
						continue
					}
					pf1, pf2 := float64(p1)/100, float64(p2)/100
					inner := float64(k2) + pf2*float64(rest) + (1-pf2)*float64(n-2)*float64(kmax)
					cost := weight*float64(k1) + pf1*inner + (1-pf1)*float64(n-1)*float64(kmax)
					if best < 0 || cost < best {
						best = cost
					}
				}
			}
		}
	}
	return best
}

// assertMatchesBruteForce synthesizes random chains of each length in ns
// under mode and checks every budget of every suffix against want: the
// same expected cost within 1e-6, and no hint where want is infeasible.
func assertMatchesBruteForce(t *testing.T, mode Mode, ns []int, want func(set *profile.Set, suffix, tMs int, weight float64) float64) {
	t.Helper()
	for seed := uint64(1); seed <= 12; seed++ {
		for _, n := range ns {
			set := randomSet(t, n, seed*31+uint64(n))
			for _, weight := range []float64{1, 2.5} {
				s, err := New(Config{Profiles: set, Weight: weight, Mode: mode, BudgetStepMs: 37})
				if err != nil {
					t.Fatal(err)
				}
				for suffix := 0; suffix < n; suffix++ {
					raw, err := s.GenerateSuffix(suffix)
					if err != nil {
						t.Fatal(err)
					}
					byBudget := map[int]float64{}
					for _, h := range raw.Hints {
						byBudget[h.BudgetMs] = h.ExpectedCost
					}
					tmin, tmax := set.BudgetRangeMs(suffix)
					for tMs := tmin; tMs <= tmax; tMs += 37 {
						want := want(set, suffix, tMs, weight)
						got, ok := byBudget[tMs]
						if want < 0 {
							if ok {
								t.Fatalf("seed %d n %d w %v suffix %d t %d: hint %v for infeasible budget",
									seed, n, weight, suffix, tMs, got)
							}
							continue
						}
						if !ok {
							t.Fatalf("seed %d n %d w %v suffix %d t %d: no hint for feasible budget (want cost %v)",
								seed, n, weight, suffix, tMs, want)
						}
						if diff := got - want; diff > 1e-6 || diff < -1e-6 {
							t.Fatalf("seed %d n %d w %v suffix %d t %d: cost %v, brute force %v",
								seed, n, weight, suffix, tMs, got, want)
						}
					}
				}
			}
		}
	}
}

func TestAlgorithm1MatchesBruteForce(t *testing.T) {
	assertMatchesBruteForce(t, ModeJanus, []int{2, 3}, bruteForce)
}

// TestJanusPlusMatchesBruteForce extends the equivalence to Janus+'s
// next-to-head exploration (exploreSecond), on chains long enough for it
// to engage.
func TestJanusPlusMatchesBruteForce(t *testing.T) {
	assertMatchesBruteForce(t, ModeJanusPlus, []int{3, 4}, bruteForcePlus)
}

// TestAlgorithm1HintsAlwaysFitBudget is the corresponding safety property
// over the synthetic tables: every emitted plan satisfies Eq. 5 and Eq. 6.
func TestAlgorithm1HintsAlwaysFitBudget(t *testing.T) {
	for seed := uint64(100); seed < 110; seed++ {
		set := randomSet(t, 3, seed)
		s, err := New(Config{Profiles: set, Mode: ModeJanus, BudgetStepMs: 23})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := s.GenerateSuffix(0)
		if err != nil {
			t.Fatal(err)
		}
		kmax := synthGrid.Max
		for _, h := range raw.Hints {
			total := set.At(0).LMs(h.HeadPercentile, h.PlanMillicores[0])
			res := 0
			for i := 1; i < 3; i++ {
				total += set.At(i).LMs(99, h.PlanMillicores[i])
				res += set.At(i).LMs(99, h.PlanMillicores[i]) - set.At(i).LMs(99, kmax)
			}
			if total > h.BudgetMs {
				t.Fatalf("seed %d t %d: plan takes %dms", seed, h.BudgetMs, total)
			}
			if set.At(0).TimeoutMs(h.HeadPercentile, h.PlanMillicores[0]) > res {
				t.Fatalf("seed %d t %d: resilience constraint violated", seed, h.BudgetMs)
			}
		}
	}
}
