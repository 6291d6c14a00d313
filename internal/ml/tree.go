package ml

import (
	"context"
	"math/rand" //lint:allow determinism consumes injected *rand.Rand; construction only via stats.NewRNG
	"slices"
	"sort"

	"repro/internal/stats"
)

// TreeParams configures a CART decision tree.
type TreeParams struct {
	// MaxDepth limits the tree depth; 0 means the default of 12.
	MaxDepth int
	// MinLeafWeight is the minimum total sample weight in a leaf
	// (default 1).
	MinLeafWeight float64
	// MinSplitWeight is the minimum total sample weight required to
	// attempt a split (default 2).
	MinSplitWeight float64
	// MaxFeatures, when positive, samples that many candidate features
	// per split (used by the random forest). 0 considers all features.
	MaxFeatures int
	// Seed drives the feature subsampling.
	Seed int64
}

func (p TreeParams) withDefaults() TreeParams {
	if p.MaxDepth <= 0 {
		p.MaxDepth = 12
	}
	if p.MinLeafWeight <= 0 {
		p.MinLeafWeight = 1
	}
	if p.MinSplitWeight <= 0 {
		p.MinSplitWeight = 2
	}
	return p
}

// DecisionTree is a weighted binary CART classifier using Gini
// impurity and threshold splits. Categorical inputs arrive one-hot or
// ordinal encoded, so threshold splits express both equality and
// ordering tests.
type DecisionTree struct {
	Params TreeParams
	root   *treeNode
	// importance accumulates the total weighted Gini decrease per
	// feature during training.
	importance []float64
}

type treeNode struct {
	leaf    bool
	prob    float64 // P(y=1) at this node
	feature int
	thresh  float64
	left    *treeNode // feature value <= thresh
	right   *treeNode
}

// NewDecisionTree returns an untrained tree with the given parameters.
func NewDecisionTree(p TreeParams) *DecisionTree {
	return &DecisionTree{Params: p.withDefaults()}
}

// Fit trains the tree.
func (t *DecisionTree) Fit(x [][]float64, y []float64, w []float64) error {
	return t.FitCtx(context.Background(), x, y, w)
}

// FitCtx is Fit with a cancellation check at every split node; on
// cancellation the partially built tree is discarded and ctx.Err() is
// returned.
func (t *DecisionTree) FitCtx(ctx context.Context, x [][]float64, y []float64, w []float64) error {
	if err := checkTrainingInput(x, y, w); err != nil {
		return err
	}
	if w == nil {
		w = ones(len(x))
	}
	b := binColumns(x)
	s := newTreeScratch(b, len(x))
	for i := range s.rows {
		s.rows[i] = int32(i)
	}
	return t.fitRows(ctx, b, y, w, s)
}

// fitRows grows the tree on the rows of b listed in s.rows, which may
// repeat a row (a bootstrap sample) and which fitRows reorders in
// place. y and w are indexed by row of b.
func (t *DecisionTree) fitRows(ctx context.Context, b *binnedX, y, w []float64, s *treeScratch) error {
	g := &grower{t: t, b: b, y: y, w: w, rng: stats.NewRNG(t.Params.Seed), treeScratch: s}
	t.importance = make([]float64, len(b.bins))
	t.root = g.build(ctx, s.rows, 0)
	if err := ctx.Err(); err != nil {
		t.root = nil // a truncated tree is a silently different model
		return err
	}
	return nil
}

// FeatureImportance returns the per-feature share of the total Gini
// impurity decrease accumulated over the tree's splits (normalized to
// sum to 1; nil before training, all-zero for a stump).
func (t *DecisionTree) FeatureImportance() []float64 {
	if t.importance == nil {
		return nil
	}
	out := make([]float64, len(t.importance))
	var total float64
	for _, v := range t.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / total
	}
	return out
}

func gini(wt, wp float64) float64 {
	if wt <= 0 {
		return 0
	}
	p := wp / wt
	return 2 * p * (1 - p)
}

// binnedX is a feature matrix binned column by column, once per fit:
// vals[f] holds the distinct values of column f in ascending order and
// bins[f][i] the position in vals[f] of row i's value. Split search
// reads bin ids only and takes thresholds from vals, so it sees exactly
// the values of the matrix it was built from. Bin ids are int32, wide
// enough for any column because checkTrainingInput caps the row count.
type binnedX struct {
	vals [][]float64
	bins [][]int32
}

func binColumns(x [][]float64) *binnedX {
	nf := len(x[0])
	b := &binnedX{vals: make([][]float64, nf), bins: make([][]int32, nf)}
	col := make([]float64, len(x))
	for f := range b.vals {
		for i, row := range x {
			col[i] = row[f]
		}
		slices.Sort(col)
		vals := slices.Clone(slices.Compact(col))
		ids := make([]int32, len(x))
		for i, row := range x {
			k, _ := slices.BinarySearch(vals, row[f])
			ids[i] = int32(k)
		}
		b.vals[f], b.bins[f] = vals, ids
	}
	return b
}

// treeScratch is the working memory of a tree fit over a binned matrix
// and n rows. A forest reuses one per tree goroutine.
type treeScratch struct {
	// rows lists the rows to fit; the partitions reorder it in place.
	rows []int32
	// all lists every feature, the candidates when not subsampling.
	all []int
	// hist accumulates the node's rows per bin of one feature; present
	// lists the bins that hold at least one row. Both are cleared after
	// each feature.
	hist    []binAcc
	present []int32
	// nw and nwy hold w[r] and w[r]*y[r] for the node's rows, in row
	// order, so the per-feature scans read them sequentially. y is 0 or
	// 1, so w[r]*y[r] is exact and adding the stored product gives the
	// same bits as multiplying in the scan.
	nw, nwy []float64
	// spill holds the right-hand rows while a node is partitioned.
	spill []int32
}

func newTreeScratch(b *binnedX, n int) *treeScratch {
	widest := 0
	for _, vals := range b.vals {
		widest = max(widest, len(vals))
	}
	s := &treeScratch{
		rows:    make([]int32, n),
		all:     make([]int, len(b.bins)),
		hist:    make([]binAcc, widest),
		present: make([]int32, 0, widest),
		nw:      make([]float64, n),
		nwy:     make([]float64, n),
		spill:   make([]int32, 0, n),
	}
	for i := range s.all {
		s.all[i] = i
	}
	return s
}

// grower is the training state of one tree: the binned matrix it reads,
// its RNG and its scratch.
type grower struct {
	t    *DecisionTree
	b    *binnedX
	y, w []float64
	rng  *rand.Rand
	*treeScratch
}

// binAcc is one histogram bin: the row count, which decides whether the
// bin's value is a split candidate even when its weight is zero, and
// the weighted row and positive totals.
type binAcc struct {
	n     int32
	w, wp float64
}

func (g *grower) build(ctx context.Context, rows []int32, depth int) *treeNode {
	nw, nwy := g.nw[:len(rows)], g.nwy[:len(rows)]
	var wt, wp float64
	for k, r := range rows {
		nw[k], nwy[k] = g.w[r], g.w[r]*g.y[r]
		wt += nw[k]
		wp += nwy[k]
	}
	n := &treeNode{leaf: true}
	if wt > 0 {
		n.prob = wp / wt
	}
	p := g.t.Params
	if depth >= p.MaxDepth || wt < p.MinSplitWeight ||
		n.prob == 0 || n.prob == 1 || ctx.Err() != nil {
		return n
	}
	feat, thresh, gain, ok := g.bestSplit(rows, wt, wp)
	if !ok {
		return n
	}
	// Weighted impurity decrease credits the chosen feature.
	g.t.importance[feat] += gain * wt
	nl := g.partition(rows, feat, thresh)
	if nl == 0 || nl == len(rows) {
		return n
	}
	n.leaf = false
	n.feature = feat
	n.thresh = thresh
	n.left = g.build(ctx, rows[:nl], depth+1)
	n.right = g.build(ctx, rows[nl:], depth+1)
	return n
}

// partition stably reorders rows so that those whose value of feat is
// at most thresh come first, and returns how many they are. Both sides
// keep their order, so every sum below this node adds its rows in the
// same order as a scan of rows would.
func (g *grower) partition(rows []int32, feat int, thresh float64) int {
	vals, ids := g.b.vals[feat], g.b.bins[feat]
	nl, spill := 0, g.spill[:0]
	for _, r := range rows {
		if vals[ids[r]] <= thresh {
			rows[nl] = r
			nl++
		} else {
			spill = append(spill, r)
		}
	}
	copy(rows[nl:], spill)
	return nl
}

// bestSplit finds the (feature, threshold) pair with the largest Gini
// decrease. For each candidate feature it sums the node's rows per bin,
// in row order, then walks the bins that hold a row in ascending value
// order; a threshold is the midpoint of two adjacent present values.
func (g *grower) bestSplit(rows []int32, wt, wp float64) (int, float64, float64, bool) {
	nf := len(g.b.bins)
	nw, nwy := g.nw[:len(rows)], g.nwy[:len(rows)]
	feats := g.all
	if mf := g.t.Params.MaxFeatures; mf > 0 && mf < nf {
		feats = stats.SampleWithoutReplacement(g.rng, nf, mf)
		sort.Ints(feats)
	}
	minLeaf := g.t.Params.MinLeafWeight
	parent := gini(wt, wp)
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	for _, f := range feats {
		ids, present := g.b.bins[f], g.present[:0]
		for k, r := range rows {
			id := ids[r]
			h := &g.hist[id]
			if h.n == 0 {
				present = append(present, id)
			}
			h.n++
			h.w += nw[k]
			h.wp += nwy[k]
		}
		slices.Sort(present)
		vals := g.b.vals[f]
		var lw, lwp float64
		for k := 0; k < len(present)-1; k++ {
			h := &g.hist[present[k]]
			lw += h.w
			lwp += h.wp
			rw, rwp := wt-lw, wp-lwp
			if lw < minLeaf || rw < minLeaf {
				continue
			}
			gain := parent - (lw*gini(lw, lwp)+rw*gini(rw, rwp))/wt
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (vals[present[k]] + vals[present[k+1]]) / 2
			}
		}
		for _, k := range present {
			g.hist[k] = binAcc{}
		}
	}
	return bestFeat, bestThresh, bestGain, bestFeat >= 0
}

// PredictProba returns the training-set positive fraction of the leaf x
// falls into.
func (t *DecisionTree) PredictProba(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0.5
	}
	for !n.leaf {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prob
}

// Predict thresholds PredictProba at 0.5.
func (t *DecisionTree) Predict(x []float64) int { return threshold(t.PredictProba(x)) }

// Depth returns the depth of the trained tree (0 for a stump/untrained).
func (t *DecisionTree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
