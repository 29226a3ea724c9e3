package shard

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/learn"
)

// TestTrainerHoldsTheCurrentFit: a Trainer that outlives one execution (a
// worker's shard executor serves every seed and budget) keys its memo by
// the whole learn sample, not the training seed alone — the same seed at a
// larger budget is a different sample and must not get the smaller one's
// forest — and holds one fit at a time, however many it has been asked for.
func TestTrainerHoldsTheCurrentFit(t *testing.T) {
	x := make([][]float64, 40)
	y := make([]bool, len(x))
	for i := range x {
		x[i] = []float64{float64(i % 7), float64(i % 3)}
		y[i] = i%7 < 3
	}
	tr := NewTrainer(core.ForestClassifier(1))
	train := func(n int, seed uint64) (learn.Classifier, bool) {
		t.Helper()
		clf, fit, err := tr.Train(x[:n], y[:n], seed)
		if err != nil {
			t.Fatal(err)
		}
		return clf, fit > 0
	}

	small, fitted := train(20, 9)
	if !fitted {
		t.Fatal("first Train reported no fit")
	}
	if again, fitted := train(20, 9); again != small || fitted {
		t.Error("the identical learn sample was fitted again")
	}
	// A decoded copy of the sample is the same sample.
	cx := make([][]float64, 20)
	for i := range cx {
		cx[i] = append([]float64(nil), x[i]...)
	}
	if again, _, _ := tr.Train(cx, append([]bool(nil), y[:20]...), 9); again != small {
		t.Error("an equal copy of the learn sample was fitted again")
	}
	large, fitted := train(40, 9)
	if large == small || !fitted {
		t.Fatal("the same seed over a larger learn sample got the smaller sample's classifier")
	}
	if other, fitted := train(40, 10); other == large || !fitted {
		t.Error("another seed got the previous seed's classifier")
	}
	if back, fitted := train(20, 9); back == small || !fitted {
		t.Error("a replaced fit was still held")
	}

	// Shards of one execution ask at once: one fit, shared.
	var wg sync.WaitGroup
	got := make([]learn.Classifier, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, _ = tr.Train(x[:30], y[:30], 3)
		}()
	}
	wg.Wait()
	for i, clf := range got {
		if clf == nil || clf != got[0] {
			t.Fatalf("concurrent shard %d trained its own classifier", i)
		}
	}
}

// TestLocalWithSeed: the seed only steers Cands; the view shares the shard.
func TestLocalWithSeed(t *testing.T) {
	keys := []int64{1, 4, 7, 10, 13, 16, 19, 22}
	base := NewLocal(0, keys, nil, nil, nil, nil, nil)
	ctx := context.Background()
	for _, seed := range []uint64{5, 6} {
		labeled := 0
		w := base.WithSeed(seed, func(_ context.Context, sel []int64) ([]bool, int, error) {
			labeled += len(sel)
			return make([]bool, len(sel)), len(sel), nil
		}, nil)
		got, err := w.Cands(ctx, 3, TagSample)
		if err != nil {
			t.Fatal(err)
		}
		want := LocalCands(keys, 3, seed, TagSample)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: candidates %v, want %v", seed, got, want)
			}
		}
		if _, _, _, err := w.Label(ctx, keys[:2], nil); err != nil || labeled != 2 {
			t.Fatalf("seed %d: Label err %v, %d keys reached the view's label function", seed, err, labeled)
		}
		if m, _ := w.Meta(ctx); m.N != len(keys) {
			t.Fatalf("seed %d: census %d, want %d", seed, m.N, len(keys))
		}
	}
}
