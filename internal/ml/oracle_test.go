package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand" //lint:allow determinism test oracle consumes an injected *rand.Rand
	"sort"
	"testing"

	"repro/internal/stats"
)

// This file keeps the training loops the pre-binned tree kernel and the
// nonzero-column linear loops replaced, as reference implementations:
// a map histogram per feature per node and append-grown row partitions
// for trees, bootstrap copies of the rows for the forest, and dense
// column loops for LG and NN. The oracle tests require the production
// learners to reproduce their output bit for bit.

func refFitTree(t *DecisionTree, x [][]float64, y, w []float64) {
	if w == nil {
		w = ones(len(x))
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.importance = make([]float64, len(x[0]))
	t.root = refBuild(t, x, y, w, idx, 0, stats.NewRNG(t.Params.Seed))
}

func refBuild(t *DecisionTree, x [][]float64, y, w []float64, idx []int, depth int, rng *rand.Rand) *treeNode {
	var wt, wp float64
	for _, i := range idx {
		wt += w[i]
		wp += w[i] * y[i]
	}
	n := &treeNode{leaf: true}
	if wt > 0 {
		n.prob = wp / wt
	}
	if depth >= t.Params.MaxDepth || wt < t.Params.MinSplitWeight || n.prob == 0 || n.prob == 1 {
		return n
	}
	feat, thresh, gain, ok := refBestSplit(t, x, y, w, idx, wt, wp, rng)
	if !ok {
		return n
	}
	t.importance[feat] += gain * wt
	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return n
	}
	n.leaf = false
	n.feature = feat
	n.thresh = thresh
	n.left = refBuild(t, x, y, w, left, depth+1, rng)
	n.right = refBuild(t, x, y, w, right, depth+1, rng)
	return n
}

func refBestSplit(t *DecisionTree, x [][]float64, y, w []float64, idx []int, wt, wp float64, rng *rand.Rand) (int, float64, float64, bool) {
	nf := len(x[idx[0]])
	feats := make([]int, nf)
	for i := range feats {
		feats[i] = i
	}
	if t.Params.MaxFeatures > 0 && t.Params.MaxFeatures < nf {
		feats = stats.SampleWithoutReplacement(rng, nf, t.Params.MaxFeatures)
		sort.Ints(feats)
	}
	parent := gini(wt, wp)
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	type acc struct{ w, wp float64 }
	for _, f := range feats {
		hist := map[float64]acc{}
		for _, i := range idx {
			a := hist[x[i][f]]
			a.w += w[i]
			a.wp += w[i] * y[i]
			hist[x[i][f]] = a
		}
		if len(hist) < 2 {
			continue
		}
		vals := make([]float64, 0, len(hist))
		for v := range hist {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		var lw, lwp float64
		for k := 0; k < len(vals)-1; k++ {
			a := hist[vals[k]]
			lw += a.w
			lwp += a.wp
			rw, rwp := wt-lw, wp-lwp
			if lw < t.Params.MinLeafWeight || rw < t.Params.MinLeafWeight {
				continue
			}
			gain := parent - (lw*gini(lw, lwp)+rw*gini(rw, rwp))/wt
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (vals[k] + vals[k+1]) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestGain, bestFeat >= 0
}

func refFitForest(f *RandomForest, x [][]float64, y, w []float64) {
	rng := stats.NewRNG(f.Params.Seed)
	n := len(x)
	maxFeat := f.Params.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Ceil(math.Sqrt(float64(len(x[0])))))
	}
	var sampler *stats.WeightedSampler
	if w != nil {
		sampler = stats.NewWeightedSampler(w)
	}
	f.trees = make([]*DecisionTree, f.Params.Trees)
	for t := range f.trees {
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			var j int
			if sampler == nil {
				j = rng.Intn(n)
			} else {
				j = sampler.Draw(rng)
			}
			bx[i] = x[j]
			by[i] = y[j]
		}
		tree := NewDecisionTree(TreeParams{
			MaxDepth:      f.Params.MaxDepth,
			MaxFeatures:   maxFeat,
			MinLeafWeight: f.Params.MinLeafWeight,
			Seed:          rng.Int63(),
		})
		refFitTree(tree, bx, by, nil)
		f.trees[t] = tree
	}
}

func refFitLogReg(l *LogisticRegression, x [][]float64, y, w []float64) {
	if w == nil {
		w = ones(len(x))
	}
	l.Weights = make([]float64, len(x[0]))
	l.Bias = 0
	var totalW float64
	for _, wi := range w {
		totalW += wi
	}
	if totalW == 0 {
		totalW = 1
	}
	grad := make([]float64, len(x[0]))
	lr := l.Params.LearningRate
	for epoch := 0; epoch < l.Params.Epochs; epoch++ {
		for i := range grad {
			grad[i] = 0
		}
		var gradB float64
		for i := range x {
			p := l.PredictProba(x[i])
			e := w[i] * (p - y[i])
			for j, xv := range x[i] {
				if xv != 0 {
					grad[j] += e * xv
				}
			}
			gradB += e
		}
		for j := range l.Weights {
			g := grad[j]/totalW + l.Params.L2*l.Weights[j]
			l.Weights[j] -= lr * g
		}
		l.Bias -= lr * gradB / totalW
	}
}

func refFitNN(n *NeuralNetwork, x [][]float64, y, w []float64) {
	if w == nil {
		w = ones(len(x))
	}
	rng := stats.NewRNG(n.Params.Seed)
	nf := len(x[0])
	h := n.Params.Hidden
	scale := math.Sqrt(2 / float64(nf))
	n.w1 = make([][]float64, h)
	n.b1 = make([]float64, h)
	n.w2 = make([]float64, h)
	for i := 0; i < h; i++ {
		n.w1[i] = make([]float64, nf)
		for j := range n.w1[i] {
			n.w1[i][j] = rng.NormFloat64() * scale
		}
		n.w2[i] = rng.NormFloat64() * math.Sqrt(1/float64(h))
	}
	n.b2 = 0
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	hidden := make([]float64, h)
	lr := n.Params.LearningRate
	for epoch := 0; epoch < n.Params.Epochs; epoch++ {
		stats.Shuffle(rng, idx)
		for start := 0; start < len(idx); start += n.Params.BatchSize {
			end := min(start+n.Params.BatchSize, len(idx))
			var batchW float64
			for _, i := range idx[start:end] {
				batchW += w[i]
			}
			if batchW == 0 {
				continue
			}
			step := lr / batchW
			for _, i := range idx[start:end] {
				xi := x[i]
				for hh := 0; hh < h; hh++ {
					z := n.b1[hh]
					for j, v := range xi {
						if v != 0 {
							z += n.w1[hh][j] * v
						}
					}
					if z < 0 {
						z = 0
					}
					hidden[hh] = z
				}
				z2 := n.b2
				for hh := 0; hh < h; hh++ {
					z2 += n.w2[hh] * hidden[hh]
				}
				p := 1 / (1 + math.Exp(-z2))
				d2 := w[i] * (p - y[i])
				for hh := 0; hh < h; hh++ {
					gw2 := d2 * hidden[hh]
					d1 := d2 * n.w2[hh]
					n.w2[hh] -= step * (gw2 + n.Params.L2*n.w2[hh])
					if hidden[hh] > 0 {
						for j, v := range xi {
							if v != 0 {
								n.w1[hh][j] -= step * (d1*v + n.Params.L2*n.w1[hh][j])
							}
						}
						n.b1[hh] -= step * d1
					}
				}
				n.b2 -= step * d2
			}
		}
	}
}

// oracleCase is one training matrix for the oracle tests.
type oracleCase struct {
	name string
	x    [][]float64
	y, w []float64
}

// randomMatrix draws an n×width matrix whose columns mimic the encoder's
// output and its edge cases: one-hot 0/1 columns, ordinal k/(card-1)
// columns, continuous columns (negative values, a few written as -0),
// and all-equal columns. Labels lean on the first column so trees grow.
func randomMatrix(r *rand.Rand, n, width int) ([][]float64, []float64) {
	kinds := make([]int, width)
	for j := range kinds {
		kinds[j] = r.Intn(4)
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, width)
		for j, kind := range kinds {
			switch kind {
			case 0:
				x[i][j] = float64(r.Intn(2))
			case 1:
				x[i][j] = float64(r.Intn(5)) / 4
			case 2:
				x[i][j] = math.Round(r.NormFloat64()*1e3) / 1e2
				if r.Intn(20) == 0 {
					x[i][j] = math.Copysign(0, -1)
				}
			case 3:
				x[i][j] = 0.75
			}
		}
		score := r.Float64()
		if width > 0 && x[i][0] > 0 {
			score += 0.4
		}
		if score > 0.7 {
			y[i] = 1
		}
	}
	return x, y
}

// oracleCases covers unweighted and weighted rows, zero-weight rows
// (including a value present only in zero-weight rows, which is still a
// split candidate), all-equal columns, a single row, a zero-width
// matrix, and a column with more than 65 536 distinct values. Repeated
// row lists are covered by the forest and by TestTreeBootstrapRows.
func oracleCases() []oracleCase {
	var cases []oracleCase
	for seed := int64(1); seed <= 6; seed++ {
		r := stats.NewRNG(seed)
		x, y := randomMatrix(r, 20+r.Intn(400), 1+r.Intn(7))
		w := make([]float64, len(x))
		for i := range w {
			switch r.Intn(4) {
			case 0:
				w[i] = 0
			default:
				w[i] = r.Float64() * 3
			}
		}
		cases = append(cases,
			oracleCase{fmt.Sprintf("seed%d", seed), x, y, nil},
			oracleCase{fmt.Sprintf("seed%d/weighted", seed), x, y, w})
	}

	x, y := randomMatrix(stats.NewRNG(7), 300, 4)
	w := make([]float64, len(x))
	for i := range w {
		w[i] = 1
		if i%3 == 0 {
			w[i] = 0
			x[i][1] = 9 // a value only zero-weight rows hold
		}
	}
	cases = append(cases, oracleCase{"zero-weight", x, y, w})

	cases = append(cases, oracleCase{"single-row", [][]float64{{1, 0.5, -2}}, []float64{1}, nil})

	empty := make([][]float64, 50)
	labels := make([]float64, 50)
	for i := range empty {
		empty[i] = []float64{}
		labels[i] = float64(i % 3 / 2)
	}
	cases = append(cases, oracleCase{"zero-width", empty, labels, nil})

	r := stats.NewRNG(8)
	wide := make([][]float64, 70000)
	wideY := make([]float64, len(wide))
	for i := range wide {
		v := r.Float64()
		wide[i] = []float64{v, float64(r.Intn(2)), 1}
		if v+0.3*r.Float64() > 0.8 {
			wideY[i] = 1
		}
	}
	cases = append(cases, oracleCase{"wide-distinct", wide, wideY, nil})
	return cases
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSliceBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameTree compares two trees node by node, floats by their bits, and
// their feature importances.
func sameTree(t *testing.T, got, want *DecisionTree) {
	t.Helper()
	g, w := flattenTree(got.root), flattenTree(want.root)
	if len(g) != len(w) {
		t.Fatalf("tree has %d nodes, reference %d", len(g), len(w))
	}
	for i := range g {
		a, b := g[i], w[i]
		if a.Leaf != b.Leaf || a.Feature != b.Feature || a.Left != b.Left || a.Right != b.Right ||
			!sameBits(a.Prob, b.Prob) || !sameBits(a.Thresh, b.Thresh) {
			t.Fatalf("node %d = %+v, reference %+v", i, a, b)
		}
	}
	if !sameSliceBits(got.FeatureImportance(), want.FeatureImportance()) {
		t.Fatalf("importance %v, reference %v", got.FeatureImportance(), want.FeatureImportance())
	}
}

// TestTreeKernelMatchesReference fits the pre-binned tree and the
// map-histogram reference on every oracle matrix, with all features and
// with per-split feature sampling.
func TestTreeKernelMatchesReference(t *testing.T) {
	for _, tc := range oracleCases() {
		if tc.name == "wide-distinct" && len(binColumns(tc.x).vals[0]) <= 1<<16 {
			t.Fatal("wide-distinct must hold a column with more than 65 536 distinct values")
		}
		for _, p := range []TreeParams{
			{MaxDepth: 10, MinLeafWeight: 5, Seed: 1},
			{MaxDepth: 6, MaxFeatures: 2, Seed: 9},
		} {
			t.Run(fmt.Sprintf("%s/maxfeat%d", tc.name, p.MaxFeatures), func(t *testing.T) {
				got, want := NewDecisionTree(p), NewDecisionTree(p)
				if err := got.Fit(tc.x, tc.y, tc.w); err != nil {
					t.Fatal(err)
				}
				refFitTree(want, tc.x, tc.y, tc.w)
				sameTree(t, got, want)
			})
		}
	}
}

// TestTreeBootstrapRows fits a tree through a row list that repeats and
// reorders rows, as a forest member does, against the reference fitted
// on copies of those rows.
func TestTreeBootstrapRows(t *testing.T) {
	r := stats.NewRNG(11)
	x, y := randomMatrix(r, 500, 5)
	b := binColumns(x)
	s := newTreeScratch(b, len(x))
	bx := make([][]float64, len(x))
	by := make([]float64, len(x))
	for i := range s.rows {
		j := r.Intn(len(x))
		s.rows[i] = int32(j)
		bx[i], by[i] = x[j], y[j]
	}
	p := TreeParams{MaxDepth: 8, MaxFeatures: 3, Seed: 4}
	got, want := NewDecisionTree(p), NewDecisionTree(p)
	if err := got.fitRows(context.Background(), b, y, ones(len(x)), s); err != nil {
		t.Fatal(err)
	}
	refFitTree(want, bx, by, nil)
	sameTree(t, got, want)
}

// TestForestMatchesReference fits the concurrent forest over shared
// bins and the sequential bootstrap-copy reference, through both the
// uniform (nil weights) and the weighted bootstrap sampler.
func TestForestMatchesReference(t *testing.T) {
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := ForestParams{Trees: 6, MaxDepth: 6, Seed: 3}
			if len(tc.x) > 10000 {
				p.Trees = 2
			}
			got, want := NewRandomForest(p), NewRandomForest(p)
			if err := got.Fit(tc.x, tc.y, tc.w); err != nil {
				t.Fatal(err)
			}
			refFitForest(want, tc.x, tc.y, tc.w)
			if len(got.trees) != len(want.trees) {
				t.Fatalf("%d trees, reference %d", len(got.trees), len(want.trees))
			}
			for i := range got.trees {
				if got.trees[i].Params != want.trees[i].Params {
					t.Fatalf("tree %d params %+v, reference %+v", i, got.trees[i].Params, want.trees[i].Params)
				}
				sameTree(t, got.trees[i], want.trees[i])
			}
		})
	}
}

// TestLinearLoopsMatchReference fits LG and NN with the nonzero-column
// loops and with the dense reference loops. The diverging LG setting
// drives weights to ±Inf and NaN, where a zero feature's term wj*0 is
// NaN rather than ±0.
func TestLinearLoopsMatchReference(t *testing.T) {
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			lgParams := []LogRegParams{
				{Epochs: 150, LearningRate: 0.8, L2: 1e-4},
				{Epochs: 200, LearningRate: 0.5, L2: 100},
			}
			nnParams := NNParams{Hidden: 8, Epochs: 3, Seed: 5}
			if len(tc.x) > 10000 {
				lgParams[0].Epochs, lgParams[1].Epochs = 5, 5
				nnParams.Epochs = 1
			}
			for _, p := range lgParams {
				got, want := NewLogisticRegression(p), NewLogisticRegression(p)
				if err := got.Fit(tc.x, tc.y, tc.w); err != nil {
					t.Fatal(err)
				}
				refFitLogReg(want, tc.x, tc.y, tc.w)
				if !sameSliceBits(got.Weights, want.Weights) || !sameBits(got.Bias, want.Bias) {
					t.Fatalf("LG %+v: weights %v bias %v, reference %v %v", p, got.Weights, got.Bias, want.Weights, want.Bias)
				}
			}
			got, want := NewNeuralNetwork(nnParams), NewNeuralNetwork(nnParams)
			if err := got.Fit(tc.x, tc.y, tc.w); err != nil {
				t.Fatal(err)
			}
			refFitNN(want, tc.x, tc.y, tc.w)
			for h := range want.w1 {
				if !sameSliceBits(got.w1[h], want.w1[h]) {
					t.Fatalf("NN w1[%d] = %v, reference %v", h, got.w1[h], want.w1[h])
				}
			}
			if !sameSliceBits(got.b1, want.b1) || !sameSliceBits(got.w2, want.w2) || !sameBits(got.b2, want.b2) {
				t.Fatalf("NN b1/w2/b2 differ from the reference")
			}
		})
	}
}
