package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"janus/internal/adapter"
	"janus/internal/hints"
)

// decideInput is one adaptation request: a bundle (by index), a decision
// group, an optional resolved-shape key and the remaining budget.
type decideInput struct {
	bundle      int
	group       int
	shape       string
	remainingMs int64
}

// drawDecide draws one request against bundle b. Budgets run from 80% of
// the table's smallest covered budget to its largest, so the stream mixes
// hint-table hits with below-floor misses that escalate. Dynamic bundles
// get a resolved-shape key half of the time.
func drawDecide(r *rand.Rand, bundle int, b *hints.Bundle) decideInput {
	in := decideInput{bundle: bundle, group: r.IntN(b.Stages())}
	t := b.Tables[in.group]
	if variants := b.Shaped[in.group]; len(variants) > 0 && r.IntN(2) == 0 {
		keys := make([]string, 0, len(variants))
		for k := range variants {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		in.shape = keys[r.IntN(len(keys))]
		t = variants[in.shape]
	}
	lo, _ := t.MinBudgetMs()
	hi, _ := t.MaxBudgetMs()
	from := lo * 4 / 5
	in.remainingMs = int64(max(1, from+r.IntN(hi-from+1)))
	return in
}

// drawDecides draws n requests spread uniformly over the bundles.
func drawDecides(seed uint64, bundles []*hints.Bundle, n int) []decideInput {
	r := rand.New(rand.NewPCG(seed, 0xdec1de))
	out := make([]decideInput, n)
	for i := range out {
		j := r.IntN(len(bundles))
		out[i] = drawDecide(r, j, bundles[j])
	}
	return out
}

// decideBatch is how many in-process decisions share one clock reading:
// a single decision takes about as long as reading the clock.
const decideBatch = 64

// timeDecides replays the requests through adapter.DecideShaped, one
// fresh adapter per bundle, and returns the per-decision time of every
// batch in nanoseconds.
func timeDecides(bundles []*hints.Bundle, in []decideInput) ([]float64, error) {
	ads, err := adapters(bundles)
	if err != nil {
		return nil, err
	}
	var perDecide []float64
	for lo := 0; lo+decideBatch <= len(in); lo += decideBatch {
		start := time.Now()
		for _, x := range in[lo : lo+decideBatch] {
			if _, err := decide(ads, x); err != nil {
				return nil, err
			}
		}
		perDecide = append(perDecide, float64(time.Since(start))/decideBatch)
	}
	return perDecide, nil
}

// adapters builds one fresh adapter per bundle.
func adapters(bundles []*hints.Bundle) ([]*adapter.Adapter, error) {
	ads := make([]*adapter.Adapter, len(bundles))
	for i, b := range bundles {
		a, err := adapter.New(b)
		if err != nil {
			return nil, err
		}
		ads[i] = a
	}
	return ads, nil
}

// decide answers one request in-process — the reference a wire response
// is checked against.
func decide(ads []*adapter.Adapter, x decideInput) (adapter.Decision, error) {
	return ads[x.bundle].DecideShaped(x.group, x.shape, time.Duration(x.remainingMs)*time.Millisecond)
}
