package core

import (
	"context"
	"testing"

	"repro/internal/predicate"
	"repro/internal/xrand"
)

// batchOnly is a BatchPredicate over a label vector that counts the calls
// of Eval, which bypass its batch path: a run over it that leaves bypassed
// at 0 sent every label through EvalBatch.
type batchOnly struct {
	labels   []bool
	n        int64
	bypassed int
}

func (b *batchOnly) Eval(i int) bool {
	b.bypassed++
	b.n++
	return b.labels[i]
}

func (b *batchOnly) Evals() int64 { return b.n }

func (b *batchOnly) EvalBatch(idxs []int, out []bool) {
	b.n += int64(len(idxs))
	for j, i := range idxs {
		out[j] = b.labels[i]
	}
}

// overLabels returns obj's features twice: behind a sequential Func and
// behind a batchOnly, both over the labels of obj.Pred.
func overLabels(t *testing.T, obj *ObjectSet) (seq, batch *ObjectSet, bp *batchOnly) {
	t.Helper()
	labels, err := predicate.Label(obj.Pred, predicate.AllIndices(obj.N()), nil)
	if err != nil {
		t.Fatal(err)
	}
	seq = &ObjectSet{Features: obj.Features, Pred: predicate.NewFunc(func(i int) bool { return labels[i] })}
	bp = &batchOnly{labels: labels}
	return seq, &ObjectSet{Features: obj.Features, Pred: bp}, bp
}

// TestMethodsLabelThroughTheFrame runs every method, plain and grouped, over
// a batch predicate, failing on any call of its Eval, and over a sequential
// Func of the same labels: each phase labels its selection in one
// frame.label call, so both give the same estimates at the same evaluation
// count.
func TestMethodsLabelThroughTheFrame(t *testing.T) {
	base, _ := syntheticInstance(600, 1.0, 71)
	seq, batch, bp := overLabels(t, base)
	const budget = 120
	for _, m := range []Method{
		&SRS{}, &SSP{}, &SSN{},
		&LSS{NewClassifier: knnSpec},
		&LWS{NewClassifier: knnSpec},
		&LWS{NewClassifier: knnSpec, WithReplacement: true},
		&QLCC{NewClassifier: knnSpec, Augment: true},
		&QLAC{NewClassifier: knnSpec, Augment: true},
		Oracle{},
	} {
		a, err := m.Estimate(context.Background(), seq, budget, xrand.New(72))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		b, err := m.Estimate(context.Background(), batch, budget, xrand.New(72))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if a.Estimate != b.Estimate || a.CI != b.CI || a.HasCI != b.HasCI || a.Evals != b.Evals {
			t.Errorf("%s: sequential %v %v (%d evals), batch %v %v (%d evals)",
				m.Name(), a.Estimate, a.CI, a.Evals, b.Estimate, b.CI, b.Evals)
		}
		if bp.bypassed > 0 {
			t.Errorf("%s: %d labels bypassed the batch path", m.Name(), bp.bypassed)
			bp.bypassed = 0
		}
	}

	groupOf := make([]int, base.N())
	for i := range groupOf {
		groupOf[i] = i % 3
	}
	for _, m := range []GroupedMethod{
		&GroupedSRS{},
		&GroupedLSS{NewClassifier: knnSpec},
		GroupedOracle{},
	} {
		a, err := m.EstimateGroups(context.Background(), seq, groupOf, 3, budget, xrand.New(73))
		if err != nil {
			t.Fatalf("grouped %s: %v", m.Name(), err)
		}
		b, err := m.EstimateGroups(context.Background(), batch, groupOf, 3, budget, xrand.New(73))
		if err != nil {
			t.Fatalf("grouped %s: %v", m.Name(), err)
		}
		if a.Evals != b.Evals {
			t.Errorf("grouped %s: %d sequential evals, %d batch", m.Name(), a.Evals, b.Evals)
		}
		for g := range a.Groups {
			if a.Groups[g] != b.Groups[g] {
				t.Errorf("grouped %s, group %d: sequential %+v, batch %+v", m.Name(), g, a.Groups[g], b.Groups[g])
			}
		}
		if bp.bypassed > 0 {
			t.Errorf("grouped %s: %d labels bypassed the batch path", m.Name(), bp.bypassed)
			bp.bypassed = 0
		}
	}
}

// TestFrameMemoLabelsEachObjectOnce: with a memo, the frame evaluates an
// object the first time any label call names it — once however often that
// call or a later one repeats it — on the sequential and the batch path.
func TestFrameMemoLabelsEachObjectOnce(t *testing.T) {
	base, _ := syntheticInstance(100, 1.0, 74)
	seq, batch, bp := overLabels(t, base)
	for name, obj := range map[string]*ObjectSet{"sequential": seq, "batch": batch} {
		f := open(context.Background(), obj, true)
		for _, step := range []struct {
			idxs  []int
			evals int64 // total evaluations after the call
		}{
			{[]int{3, 4, 4, 7, 3, 10}, 4},
			{[]int{3, 4, 99}, 5},
			{[]int{99, 10}, 5},
		} {
			labels, err := f.label(step.idxs)
			if err != nil {
				t.Fatal(err)
			}
			for j, i := range step.idxs {
				if want := base.Pred.Eval(i); labels[j] != want {
					t.Fatalf("%s: label of object %d is %v, want %v", name, i, labels[j], want)
				}
			}
			if evals, _ := f.spent(); evals != step.evals {
				t.Fatalf("%s: %d evaluations after labeling %v, want %d", name, evals, step.idxs, step.evals)
			}
		}
	}
	if bp.bypassed > 0 {
		t.Errorf("%d labels bypassed the batch path", bp.bypassed)
	}
}
