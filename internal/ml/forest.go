package ml

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/faults"
	"repro/internal/stats"
)

// ForestParams configures a random forest.
type ForestParams struct {
	// Trees is the ensemble size; 0 means the default of 50.
	Trees int
	// MaxDepth per tree; 0 means the default of 10.
	MaxDepth int
	// MaxFeatures per split; 0 means sqrt(#features).
	MaxFeatures int
	// MinLeafWeight per tree leaf; 0 means 1.
	MinLeafWeight float64
	// Seed drives bootstrapping and feature sampling.
	Seed int64
}

func (p ForestParams) withDefaults() ForestParams {
	if p.Trees <= 0 {
		p.Trees = 50
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 10
	}
	return p
}

// RandomForest is a bagged ensemble of decision trees with per-split
// feature subsampling, averaging leaf probabilities.
type RandomForest struct {
	Params ForestParams
	trees  []*DecisionTree
}

// NewRandomForest returns an untrained forest.
func NewRandomForest(p ForestParams) *RandomForest {
	return &RandomForest{Params: p.withDefaults()}
}

// Fit trains the ensemble. Sample weights steer the bootstrap draw:
// instances are resampled proportionally to their weight, which is how
// the reweighting baselines influence tree ensembles.
func (f *RandomForest) Fit(x [][]float64, y []float64, w []float64) error {
	return f.FitCtx(context.Background(), x, y, w)
}

// FitCtx is Fit with a per-tree cancellation check; on cancellation,
// an error or a panic in any tree, the whole ensemble is discarded and
// the error is returned (ctx.Err() on cancellation; a panic becomes an
// error naming the tree).
//
// x is binned once and every tree reads the shared bins through its
// bootstrap row list. Trees are fitted concurrently, on at most
// runtime.GOMAXPROCS(0) goroutines, yet the model does not depend on
// scheduling: every draw from the forest's RNG happens on the calling
// goroutine in tree order (tree t's n bootstrap draws, then its seed),
// as does the per-tree ml.train.epoch checkpoint, and tree t is stored
// at index t. All tree goroutines have exited when FitCtx returns.
func (f *RandomForest) FitCtx(ctx context.Context, x [][]float64, y []float64, w []float64) error {
	if err := checkTrainingInput(x, y, w); err != nil {
		return err
	}
	trees, err := f.growTrees(ctx, x, y, w)
	f.trees = trees // nil on error: half an ensemble is a silently different model
	return err
}

func (f *RandomForest) growTrees(ctx context.Context, x [][]float64, y, w []float64) ([]*DecisionTree, error) {
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
	// Sample weights act through the bootstrap, so every tree fits with
	// unit weights.
	b, unit := binColumns(x), ones(n)
	trees := make([]*DecisionTree, f.Params.Trees)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		cancel()
	}
	// A tree goroutine holds one scratch from the pool while it runs, so
	// the pool's size bounds the goroutines.
	pool := make(chan *treeScratch, min(runtime.GOMAXPROCS(0), len(trees)))
	for i := 0; i < cap(pool); i++ {
		pool <- newTreeScratch(b, n)
	}
	for t := range trees {
		// Every running tree polls ctx and hands its scratch back, so
		// this receive returns even after a failure or cancellation.
		s := <-pool
		if err := epochTick(ctx, t); err != nil {
			fail(err)
			break
		}
		// Weighted bootstrap.
		for i := range s.rows {
			if sampler == nil {
				s.rows[i] = int32(rng.Intn(n))
			} else {
				s.rows[i] = int32(sampler.Draw(rng))
			}
		}
		tree := NewDecisionTree(TreeParams{
			MaxDepth:      f.Params.MaxDepth,
			MaxFeatures:   maxFeat,
			MinLeafWeight: f.Params.MinLeafWeight,
			Seed:          rng.Int63(),
		})
		trees[t] = tree
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { pool <- s }()
			if err := growTree(ctx, t, tree, b, y, unit, s); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return trees, nil
}

// growTree fits forest member t on its bootstrap rows. It runs on its
// own goroutine, where no caller's recover reaches, so it turns a panic
// into an error naming the tree.
func growTree(ctx context.Context, t int, tree *DecisionTree, b *binnedX, y, unit []float64, s *treeScratch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ml: forest tree %d panicked: %v", t, r)
		}
	}()
	if faults.Active() {
		if err := faults.FireCtx(ctx, faults.ForestTree, t); err != nil {
			return fmt.Errorf("%s on tree %d: %w", faults.ForestTree, t, err)
		}
	}
	return tree.fitRows(ctx, b, y, unit, s)
}

// PredictProba averages the member trees' leaf probabilities.
func (f *RandomForest) PredictProba(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0.5
	}
	var s float64
	for _, t := range f.trees {
		s += t.PredictProba(x)
	}
	return s / float64(len(f.trees))
}

// Predict thresholds PredictProba at 0.5.
func (f *RandomForest) Predict(x []float64) int { return threshold(f.PredictProba(x)) }

// FeatureImportance averages the member trees' normalized Gini
// importances (nil before training).
func (f *RandomForest) FeatureImportance() []float64 {
	if len(f.trees) == 0 {
		return nil
	}
	var out []float64
	for _, t := range f.trees {
		imp := t.FeatureImportance()
		if out == nil {
			out = make([]float64, len(imp))
		}
		for i, v := range imp {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return out
}
