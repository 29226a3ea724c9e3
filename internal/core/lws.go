package core

import (
	"context"
	"math"
	"time"

	"repro/internal/estimate"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// LWS is Learned Weighted Sampling (§4.1): train a classifier, then sample
// the remaining objects without replacement with probability proportional
// to max(g(o), ε), estimating the count with the Des Raj ordered estimator.
// A good classifier concentrates the draws on positives and drives the
// variance toward zero; a poor classifier only costs efficiency — the
// estimate stays unbiased with a valid confidence interval.
type LWS struct {
	NewClassifier NewClassifierFunc
	TrainFrac     float64 // fraction of budget used for learning; 0 means 0.25
	Epsilon       float64 // probability floor ε; 0 means 0.01
	// WithReplacement switches phase 2 to PPS with replacement and the
	// Hansen-Hurwitz estimator (ablation; the paper's LWS draws without
	// replacement and uses Des Raj).
	WithReplacement bool
}

// Name implements Method.
func (m *LWS) Name() string { return "lws" }

func (m *LWS) epsilon() float64 {
	if m.Epsilon <= 0 {
		return 0.01
	}
	return m.Epsilon
}

// Estimate implements Method.
func (m *LWS) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	f := open(ctx, obj, false)

	// Phase 1: learn.
	l, err := f.learn(m.NewClassifier, LearnSize(m.TrainFrac, budget, 1), false, r)
	if err != nil {
		return nil, err
	}
	defer l.release()
	restIdx := l.restIdx

	// Phase 2: PPS sampling. Default: without replacement + Des Raj. Every
	// draw is made before any of its labels, then all are labeled at once.
	t1 := time.Now()
	eps := m.epsilon()
	weights := make([]float64, len(l.scores))
	for i, g := range l.scores {
		weights[i] = math.Max(g, eps)
	}
	nSample := budget - len(l.SL)
	if nSample > len(restIdx) {
		nSample = len(restIdx)
	}
	draws := make([]int, 0, nSample)
	probs := make([]float64, 0, nSample)
	var est interface {
		Add(positive bool, p float64)
		Estimate(alpha float64) estimate.Result
	}
	if m.WithReplacement {
		sampler, err := sample.NewWithReplacement(weights)
		if err != nil {
			return nil, err
		}
		for range nSample {
			j := sampler.Draw(r)
			draws, probs = append(draws, restIdx[j]), append(probs, sampler.Prob(j))
		}
		est = estimate.NewHansenHurwitz(len(restIdx))
	} else {
		sampler, err := sample.NewWeighted(weights)
		if err != nil {
			return nil, err
		}
		for range nSample {
			j, err := sampler.Draw(r)
			if err != nil {
				break
			}
			draws, probs = append(draws, restIdx[j]), append(probs, sampler.InitialProb(j))
		}
		est = estimate.NewDesRaj(len(restIdx))
	}
	labels, err := f.label(draws)
	if err != nil {
		return nil, err
	}
	for k, y := range labels {
		est.Add(y, probs[k])
	}
	res := est.Estimate(Alpha)

	timing := l.timing
	timing.Sample = time.Since(t1)
	cs := float64(l.pos)
	return f.result(m.Name(), Result{
		Estimate: cs + res.Count,
		CI:       stats.Interval{Lo: cs + res.CI.Lo, Hi: cs + res.CI.Hi},
		HasCI:    true,
		Timing:   timing,
		Learn:    l.info,
	}), nil
}
