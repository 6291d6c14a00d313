package ml

import (
	"context"
	"math"
)

// LogRegParams configures logistic regression.
type LogRegParams struct {
	// LearningRate for gradient descent; 0 means 0.5.
	LearningRate float64
	// Epochs of full-batch descent; 0 means 200.
	Epochs int
	// L2 regularization strength; 0 disables (negative is invalid).
	L2 float64
	// Seed drives nothing today (the solver is deterministic) but is
	// kept for interface symmetry with the stochastic learners.
	Seed int64
}

func (p LogRegParams) withDefaults() LogRegParams {
	if p.LearningRate <= 0 {
		p.LearningRate = 0.5
	}
	if p.Epochs <= 0 {
		p.Epochs = 200
	}
	return p
}

// LogisticRegression is an L2-regularized linear classifier trained by
// weighted full-batch gradient descent on the cross-entropy loss.
type LogisticRegression struct {
	Params LogRegParams
	// Weights holds the learned coefficients; Bias the intercept.
	Weights []float64
	Bias    float64
}

// NewLogisticRegression returns an untrained model.
func NewLogisticRegression(p LogRegParams) *LogisticRegression {
	return &LogisticRegression{Params: p.withDefaults()}
}

// Fit trains by full-batch gradient descent. Sample weights scale each
// instance's gradient contribution.
func (l *LogisticRegression) Fit(x [][]float64, y []float64, w []float64) error {
	return l.FitCtx(context.Background(), x, y, w)
}

// FitCtx is Fit with a per-epoch cancellation check; on cancellation
// the partially descended weights remain and ctx.Err() is returned.
func (l *LogisticRegression) FitCtx(ctx context.Context, x [][]float64, y []float64, w []float64) error {
	if err := checkTrainingInput(x, y, w); err != nil {
		return err
	}
	if w == nil {
		w = ones(len(x))
	}
	nf := len(x[0])
	l.Weights = make([]float64, nf)
	l.Bias = 0
	var totalW float64
	for _, wi := range w {
		totalW += wi
	}
	if totalW == 0 {
		totalW = 1
	}
	grad := make([]float64, nf)
	nz := nonzeroColumns(x)
	lr := l.Params.LearningRate
	for epoch := 0; epoch < l.Params.Epochs; epoch++ {
		if err := epochTick(ctx, epoch); err != nil {
			return err
		}
		for i := range grad {
			grad[i] = 0
		}
		// A zero feature adds wj*0 to the score, which is ±0 and leaves
		// the probability unchanged unless wj is infinite or NaN (a
		// diverging descent); only then does the score need every column.
		dense := !allFinite(l.Weights)
		var gradB float64
		for i, xi := range x {
			cols := nz.row(i)
			var p float64
			if dense {
				p = l.PredictProba(xi)
			} else {
				z := l.Bias
				for _, j := range cols {
					z += l.Weights[j] * xi[j]
				}
				p = 1 / (1 + math.Exp(-z))
			}
			e := w[i] * (p - y[i])
			for _, j := range cols {
				grad[j] += e * xi[j]
			}
			gradB += e
		}
		for j := range l.Weights {
			g := grad[j]/totalW + l.Params.L2*l.Weights[j]
			l.Weights[j] -= lr * g
		}
		l.Bias -= lr * gradB / totalW
	}
	return nil
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// PredictProba applies the logistic link to the linear score.
func (l *LogisticRegression) PredictProba(x []float64) float64 {
	z := l.Bias
	for j, wj := range l.Weights {
		z += wj * x[j]
	}
	return 1 / (1 + math.Exp(-z))
}

// Predict thresholds PredictProba at 0.5.
func (l *LogisticRegression) Predict(x []float64) int { return threshold(l.PredictProba(x)) }
