package learn

import (
	"math"

	"repro/internal/xrand"
)

// MLP is the paper's "simple two-layer neural network" (§5.4.4: hidden
// layers of 5 and 2 units): a sigmoid multi-layer perceptron trained by
// mini-batch SGD with momentum on the logistic loss, over standardized
// features.
type MLP struct {
	Epochs int // 0 means the default 300
	Seed   uint64

	scaler  Scaler
	weights [][][]float64 // [layer][out][in]
	biases  [][]float64   // [layer][out]
}

// NewMLP returns an MLP with the paper's (5, 2) hidden layers.
func NewMLP(seed uint64) *MLP { return &MLP{Seed: seed} }

// Name implements Classifier.
func (m *MLP) Name() string { return "mlp" }

// The network's hidden layer widths and its training schedule: learning
// rate, momentum and mini-batch size.
const (
	mlpHidden1, mlpHidden2 = 5, 2
	mlpLR                  = 0.1
	mlpMomentum            = 0.9
	mlpBatch               = 16
)

func (m *MLP) epochs() int {
	if m.Epochs <= 0 {
		return 300
	}
	return m.Epochs
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Fit trains the network.
func (m *MLP) Fit(X [][]float64, y []bool) error {
	if err := validateFit(X, y); err != nil {
		return err
	}
	m.scaler = Scaler{}
	m.scaler.Fit(X)
	Xs := m.scaler.TransformAll(X)

	r := xrand.New(m.Seed)
	sizes := []int{len(X[0]), mlpHidden1, mlpHidden2, 1}
	L := len(sizes) - 1
	m.weights = make([][][]float64, L)
	m.biases = make([][]float64, L)
	vel := make([][][]float64, L)
	velB := make([][]float64, L)
	for l := 0; l < L; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in+out)) // Xavier
		m.weights[l] = make([][]float64, out)
		vel[l] = make([][]float64, out)
		m.biases[l] = make([]float64, out)
		velB[l] = make([]float64, out)
		for o := 0; o < out; o++ {
			m.weights[l][o] = make([]float64, in)
			vel[l][o] = make([]float64, in)
			for i := 0; i < in; i++ {
				m.weights[l][o][i] = scale * r.NormFloat64()
			}
		}
	}

	n := len(Xs)
	acts := make([][]float64, L+1) // activations per layer
	deltas := make([][]float64, L) // error terms per layer
	for l := 0; l < L; l++ {
		deltas[l] = make([]float64, sizes[l+1])
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < m.epochs(); epoch++ {
		r.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < n; start += mlpBatch {
			end := start + mlpBatch
			if end > n {
				end = n
			}
			// Accumulate gradients over the mini-batch by applying each
			// example's gradient through the velocity buffers.
			for _, idx := range order[start:end] {
				x := Xs[idx]
				target := 0.0
				if y[idx] {
					target = 1
				}
				// Forward.
				acts[0] = x
				for l := 0; l < L; l++ {
					out := make([]float64, sizes[l+1])
					for o := range out {
						z := m.biases[l][o]
						w := m.weights[l][o]
						for i, a := range acts[l] {
							z += w[i] * a
						}
						out[o] = sigmoid(z)
					}
					acts[l+1] = out
				}
				// Backward: with sigmoid output + log loss, the output
				// delta is (a − target).
				deltas[L-1][0] = acts[L][0] - target
				for l := L - 2; l >= 0; l-- {
					for i := 0; i < sizes[l+1]; i++ {
						sum := 0.0
						for o := 0; o < sizes[l+2]; o++ {
							sum += m.weights[l+1][o][i] * deltas[l+1][o]
						}
						a := acts[l+1][i]
						deltas[l][i] = sum * a * (1 - a)
					}
				}
				// SGD with momentum.
				g := mlpLR / float64(end-start)
				for l := 0; l < L; l++ {
					for o := 0; o < sizes[l+1]; o++ {
						d := deltas[l][o]
						velB[l][o] = mlpMomentum*velB[l][o] - g*d
						m.biases[l][o] += velB[l][o]
						w := m.weights[l][o]
						v := vel[l][o]
						for i, a := range acts[l] {
							v[i] = mlpMomentum*v[i] - g*d*a
							w[i] += v[i]
						}
					}
				}
			}
		}
	}
	return nil
}

// Score runs a forward pass.
func (m *MLP) Score(x []float64) float64 {
	if m.weights == nil {
		return 0.5
	}
	a := m.scaler.Transform(x)
	for l := range m.weights {
		out := make([]float64, len(m.weights[l]))
		for o := range out {
			z := m.biases[l][o]
			for i, v := range a {
				z += m.weights[l][o][i] * v
			}
			out[o] = sigmoid(z)
		}
		a = out
	}
	return a[0]
}
