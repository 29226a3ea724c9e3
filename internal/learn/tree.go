package learn

import "repro/internal/xrand"

// DecisionTree is a CART-style binary classification tree with Gini
// impurity splits. It is both a standalone classifier and the weak learner
// inside RandomForest.
//
// Fitted nodes are stored in a flat struct-of-arrays layout — parallel
// feature/threshold/left/right/leaf-probability slices indexed by node id —
// so scoring walks contiguous memory instead of chasing per-node pointers.
// Node 0 is the root; children always carry higher ids than their parent.
type DecisionTree struct {
	MaxDepth int // 0 means the default 12
	MinLeaf  int // minimum samples per leaf; 0 means the default 2
	// MTry, when positive, restricts each split search to MTry random
	// features (used by RandomForest); requires Rand.
	MTry int
	Rand *xrand.Rand

	treeNodes // struct-of-arrays node storage (see type comment)
}

// NewDecisionTree returns a tree with the given depth cap.
func NewDecisionTree(maxDepth int) *DecisionTree {
	return &DecisionTree{MaxDepth: maxDepth}
}

// Name implements Classifier.
func (t *DecisionTree) Name() string { return "tree" }

func (t *DecisionTree) maxDepth() int {
	if t.MaxDepth <= 0 {
		return 12
	}
	return t.MaxDepth
}

func (t *DecisionTree) minLeaf() int {
	if t.MinLeaf <= 0 {
		return 2
	}
	return t.MinLeaf
}

// Fit grows the tree on (X, y).
func (t *DecisionTree) Fit(X [][]float64, y []bool) error {
	if err := validateFit(X, y); err != nil {
		return err
	}
	g := newGrower(newTrainSet(X, y), t)
	g.everyRow()
	g.grow()
	t.treeNodes = g.nodes
	return nil
}

// Score walks the tree and returns the leaf's positive fraction.
func (t *DecisionTree) Score(x []float64) float64 {
	if len(t.feature) == 0 {
		return 0.5
	}
	ni := int32(0)
	for {
		f := t.feature[ni]
		if f < 0 || int(f) >= len(x) {
			return t.prob[ni]
		}
		if x[f] <= t.threshold[ni] {
			ni = t.left[ni]
		} else {
			ni = t.right[ni]
		}
	}
}
