// Package ml implements the downstream classifiers the paper evaluates
// against — decision tree (DT), random forest (RF), logistic regression
// (LG), and a feed-forward neural network (NN) — plus the categorical
// Naïve Bayes ranker used by preferential sampling and data massaging,
// confusion-matrix metrics, and k-fold grid search. Everything is built
// from scratch on the standard library and supports per-instance sample
// weights, which the reweighting baselines require.
//
// Training is the pipeline's hot path, so the learners avoid per-value
// work without changing a single floating-point operation: a tree bins
// its matrix once per fit and splits with dense per-node histograms over
// bin ids, a forest shares one binning across trees fitted concurrently,
// and logistic regression and the network loop over each row's nonzero
// columns only. Given the same inputs and seed, every learner produces
// the same bits at any GOMAXPROCS.
package ml

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Classifier is a binary probabilistic classifier over float feature
// vectors. Fit trains on a weighted sample; PredictProba returns
// P(y=1|x); Predict thresholds at 0.5.
type Classifier interface {
	Fit(x [][]float64, y []float64, w []float64) error
	PredictProba(x []float64) float64
	Predict(x []float64) int
}

// ContextFitter is implemented by classifiers whose training loop can
// be cancelled: FitCtx checks ctx cooperatively (per epoch for the
// iterative learners, per tree for the forest) and returns ctx.Err()
// once cancelled, leaving the model partially trained. All four
// built-in classifiers implement it.
type ContextFitter interface {
	FitCtx(ctx context.Context, x [][]float64, y []float64, w []float64) error
}

// threshold converts a probability into a hard 0/1 prediction.
func threshold(p float64) int {
	if p >= 0.5 {
		return 1
	}
	return 0
}

// checkTrainingInput validates the (x, y, w) triple shared by all
// learners. Features must be finite: a NaN equals no other value and
// fails every threshold test, and an infinite value makes a NaN or
// infinite split threshold, so either yields splits no prediction can
// use. The row and column counts must fit the learners' int32 indexes.
func checkTrainingInput(x [][]float64, y []float64, w []float64) error {
	if len(x) == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if len(y) != len(x) {
		return fmt.Errorf("ml: %d rows but %d labels", len(x), len(y))
	}
	if w != nil && len(w) != len(x) {
		return fmt.Errorf("ml: %d rows but %d weights", len(x), len(w))
	}
	width := len(x[0])
	if len(x) > math.MaxInt32 || width > math.MaxInt32 {
		return fmt.Errorf("ml: %d×%d feature matrix exceeds int32 row and column indexing", len(x), width)
	}
	for i := range x {
		if len(x[i]) != width {
			return fmt.Errorf("ml: ragged feature matrix at row %d", i)
		}
		for j, v := range x[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: non-finite feature %v at row %d, column %d", v, i, j)
			}
		}
	}
	for i := range y {
		if y[i] != 0 && y[i] != 1 {
			return fmt.Errorf("ml: label %v at row %d is not binary", y[i], i)
		}
		if w != nil && w[i] < 0 {
			return fmt.Errorf("ml: negative weight at row %d", i)
		}
	}
	return nil
}

// epochTick is the shared cooperative checkpoint of the context-aware
// training loops: it fires the ml.train.epoch fault-injection point
// with the epoch (or tree) index, counts the epoch in the context's
// metrics registry (ml.epochs — per-epoch for the iterative learners,
// per-tree for the forest), and then polls ctx.
func epochTick(ctx context.Context, epoch int) error {
	obs.MetricsFrom(ctx).Counter("ml.epochs").Inc()
	if faults.Active() {
		if err := faults.FireCtx(ctx, faults.TrainEpoch, epoch); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// ones returns a unit weight vector of length n.
func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// nonzeros lists the nonzero columns of every row of a feature matrix
// in ascending order, CSR style: row i's columns are
// cols[start[i]:start[i+1]], and their values are read back from the
// matrix. The linear learners iterate only these.
type nonzeros struct {
	start []int
	cols  []int32
}

func nonzeroColumns(x [][]float64) nonzeros {
	count := 0
	for _, row := range x {
		for _, v := range row {
			if v != 0 {
				count++
			}
		}
	}
	nz := nonzeros{start: make([]int, len(x)+1), cols: make([]int32, 0, count)}
	for i, row := range x {
		for j, v := range row {
			if v != 0 {
				nz.cols = append(nz.cols, int32(j))
			}
		}
		nz.start[i+1] = len(nz.cols)
	}
	return nz
}

func (nz nonzeros) row(i int) []int32 { return nz.cols[nz.start[i]:nz.start[i+1]] }

// Model binds a trained classifier to the feature encoding of a schema,
// so callers can predict directly on datasets.
type Model struct {
	Enc *dataset.Encoding
	Clf Classifier
}

// Train encodes d and fits clf on it, returning the bound model.
func Train(d *dataset.Dataset, clf Classifier) (*Model, error) {
	return TrainCtx(context.Background(), d, clf)
}

// TrainCtx is Train under a context. When clf implements ContextFitter
// the training loop itself checks ctx (per epoch or per tree) and
// aborts promptly with ctx.Err(); otherwise ctx is only consulted
// before training starts.
func TrainCtx(ctx context.Context, d *dataset.Dataset, clf Classifier) (*Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "ml.train")
	if sp != nil {
		sp.SetStr("clf", fmt.Sprintf("%T", clf))
		sp.SetInt("rows", int64(d.Len()))
	}
	defer sp.End()
	enc := dataset.NewEncoding(d.Schema)
	x, y, w := enc.Encode(d)
	var err error
	if cf, ok := clf.(ContextFitter); ok {
		err = cf.FitCtx(ctx, x, y, w)
	} else {
		err = clf.Fit(x, y, w)
	}
	if err != nil {
		return nil, err
	}
	if lg := obs.LoggerFrom(ctx); lg.On(obs.LevelInfo) {
		lg.Scope("ml").Info("trained", "clf", fmt.Sprintf("%T", clf), "rows", d.Len())
	}
	return &Model{Enc: enc, Clf: clf}, nil
}

// TrainKind constructs the default classifier of the given kind (see
// NewClassifier) and trains it on d — the common train-by-name path of
// the experiments and CLIs. An unknown kind returns ErrUnknownModel.
func TrainKind(d *dataset.Dataset, kind ModelKind, seed int64) (*Model, error) {
	return TrainKindCtx(context.Background(), d, kind, seed)
}

// TrainKindCtx is TrainKind under a context; see TrainCtx.
func TrainKindCtx(ctx context.Context, d *dataset.Dataset, kind ModelKind, seed int64) (*Model, error) {
	clf, err := NewClassifier(kind, seed)
	if err != nil {
		return nil, err
	}
	return TrainCtx(ctx, d, clf)
}

// Predict returns hard predictions for every instance of d.
func (m *Model) Predict(d *dataset.Dataset) []int {
	out := make([]int, d.Len())
	buf := make([]float64, m.Enc.Width())
	for i := range d.Rows {
		m.Enc.EncodeRow(d.Rows[i], buf)
		out[i] = m.Clf.Predict(buf)
	}
	return out
}

// PredictProba returns P(y=1|x) for every instance of d.
func (m *Model) PredictProba(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	buf := make([]float64, m.Enc.Width())
	for i := range d.Rows {
		m.Enc.EncodeRow(d.Rows[i], buf)
		out[i] = m.Clf.PredictProba(buf)
	}
	return out
}
