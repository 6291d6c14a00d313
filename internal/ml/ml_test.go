package ml

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// xorData builds a noiseless 2-feature XOR-ish dataset that a linear
// model cannot fit but trees and NNs can.
func xorData(n int, seed int64) (x [][]float64, y []float64) {
	r := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		a, b := float64(r.Intn(2)), float64(r.Intn(2))
		x = append(x, []float64{a, b})
		if a != b {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return x, y
}

// linearData builds a linearly separable dataset with a noisy margin.
func linearData(n int, seed int64) (x [][]float64, y []float64) {
	r := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		x = append(x, []float64{a, b})
		if a+b > 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return x, y
}

func accuracy(c Classifier, x [][]float64, y []float64) float64 {
	correct := 0
	for i := range x {
		if float64(c.Predict(x[i])) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

func TestCheckTrainingInput(t *testing.T) {
	if err := checkTrainingInput(nil, nil, nil); err == nil {
		t.Fatal("empty set must error")
	}
	x := [][]float64{{1}, {2}}
	if err := checkTrainingInput(x, []float64{1}, nil); err == nil {
		t.Fatal("label length mismatch must error")
	}
	if err := checkTrainingInput(x, []float64{1, 0}, []float64{1}); err == nil {
		t.Fatal("weight length mismatch must error")
	}
	if err := checkTrainingInput([][]float64{{1}, {2, 3}}, []float64{1, 0}, nil); err == nil {
		t.Fatal("ragged matrix must error")
	}
	if err := checkTrainingInput(x, []float64{1, 0.5}, nil); err == nil {
		t.Fatal("non-binary label must error")
	}
	if err := checkTrainingInput(x, []float64{1, 0}, []float64{1, -2}); err == nil {
		t.Fatal("negative weight must error")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := checkTrainingInput([][]float64{{1, 0}, {2, v}}, []float64{1, 0}, nil); err == nil {
			t.Fatalf("feature %v must error", v)
		}
	}
	if err := checkTrainingInput(x, []float64{1, 0}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionTreeLearnsXOR(t *testing.T) {
	x, y := xorData(400, 1)
	tree := NewDecisionTree(TreeParams{MaxDepth: 4})
	if err := tree.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tree, x, y); acc < 0.99 {
		t.Fatalf("tree accuracy on XOR = %v", acc)
	}
	if tree.Depth() < 1 || tree.Depth() > 4 {
		t.Fatalf("depth = %d", tree.Depth())
	}
}

func TestDecisionTreeRespectsDepth(t *testing.T) {
	x, y := linearData(500, 2)
	tree := NewDecisionTree(TreeParams{MaxDepth: 1})
	if err := tree.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 1 {
		t.Fatalf("depth = %d, want <= 1", tree.Depth())
	}
}

func TestDecisionTreeWeighted(t *testing.T) {
	// Two conflicting copies of the same point: prediction must follow
	// the heavier one.
	x := [][]float64{{0}, {0}}
	y := []float64{1, 0}
	tree := NewDecisionTree(TreeParams{})
	if err := tree.Fit(x, y, []float64{10, 1}); err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]float64{0}) != 1 {
		t.Fatal("weighted majority should win")
	}
	if err := tree.Fit(x, y, []float64{1, 10}); err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]float64{0}) != 0 {
		t.Fatal("weighted majority should win (flipped)")
	}
}

func TestDecisionTreePureNodeStops(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{1, 1, 1}
	tree := NewDecisionTree(TreeParams{})
	if err := tree.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 0 {
		t.Fatal("pure data should give a stump")
	}
	if p := tree.PredictProba([]float64{5}); p != 1 {
		t.Fatalf("proba = %v", p)
	}
}

func TestUntrainedPredictions(t *testing.T) {
	if p := NewDecisionTree(TreeParams{}).PredictProba([]float64{1}); p != 0.5 {
		t.Fatalf("untrained tree proba = %v", p)
	}
	if p := (&RandomForest{}).PredictProba([]float64{1}); p != 0.5 {
		t.Fatalf("untrained forest proba = %v", p)
	}
	if p := (&NeuralNetwork{}).PredictProba([]float64{1}); p != 0.5 {
		t.Fatalf("untrained nn proba = %v", p)
	}
	if p := (&NaiveBayes{}).ProbaRow([]int32{0}); p != 0.5 {
		t.Fatalf("untrained nb proba = %v", p)
	}
}

func TestRandomForestLearnsXOR(t *testing.T) {
	x, y := xorData(400, 3)
	f := NewRandomForest(ForestParams{Trees: 20, MaxDepth: 4, Seed: 1})
	if err := f.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(f, x, y); acc < 0.95 {
		t.Fatalf("forest accuracy on XOR = %v", acc)
	}
}

func TestRandomForestWeighted(t *testing.T) {
	// Massive weight on class-1 points shifts the bootstrap so far that
	// the forest predicts 1 nearly everywhere.
	x, y := linearData(300, 4)
	w := make([]float64, len(x))
	for i := range w {
		if y[i] == 1 {
			w[i] = 1000
		} else {
			w[i] = 0.001
		}
	}
	f := NewRandomForest(ForestParams{Trees: 10, MaxDepth: 3, Seed: 2})
	if err := f.Fit(x, y, w); err != nil {
		t.Fatal(err)
	}
	pos := 0
	for i := range x {
		pos += f.Predict(x[i])
	}
	if float64(pos)/float64(len(x)) < 0.9 {
		t.Fatalf("weighted forest positive rate %v, want > 0.9", float64(pos)/float64(len(x)))
	}
}

func TestLogisticRegressionLearnsLinear(t *testing.T) {
	x, y := linearData(600, 5)
	lg := NewLogisticRegression(LogRegParams{Epochs: 300, LearningRate: 1.5})
	if err := lg.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(lg, x, y); acc < 0.95 {
		t.Fatalf("logreg accuracy = %v", acc)
	}
	// Both features should carry positive weight.
	if lg.Weights[0] <= 0 || lg.Weights[1] <= 0 {
		t.Fatalf("weights = %v", lg.Weights)
	}
}

func TestLogisticRegressionCannotLearnXOR(t *testing.T) {
	x, y := xorData(400, 6)
	lg := NewLogisticRegression(LogRegParams{Epochs: 200})
	if err := lg.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	// Random draws leave the four XOR cells slightly uneven, so a linear
	// model can edge past 75% by exploiting the imbalance — but it can
	// never approach the ~100% a nonlinear model reaches.
	if acc := accuracy(lg, x, y); acc > 0.85 {
		t.Fatalf("a linear model should not fit XOR, got %v", acc)
	}
}

func TestLogisticRegressionL2Shrinks(t *testing.T) {
	x, y := linearData(400, 7)
	free := NewLogisticRegression(LogRegParams{Epochs: 200})
	reg := NewLogisticRegression(LogRegParams{Epochs: 200, L2: 0.5})
	if err := free.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(reg.Weights[0]) >= math.Abs(free.Weights[0]) {
		t.Fatal("L2 should shrink weights")
	}
}

func TestLogisticRegressionWeighted(t *testing.T) {
	// Conflicting labels at the same point: heavier side wins.
	x := [][]float64{{1}, {1}}
	y := []float64{1, 0}
	lg := NewLogisticRegression(LogRegParams{Epochs: 300, LearningRate: 1})
	if err := lg.Fit(x, y, []float64{5, 1}); err != nil {
		t.Fatal(err)
	}
	if lg.Predict([]float64{1}) != 1 {
		t.Fatal("weighted logreg should favor the heavy class")
	}
}

func TestNeuralNetworkLearnsXOR(t *testing.T) {
	x, y := xorData(500, 8)
	nn := NewNeuralNetwork(NNParams{Hidden: 8, Epochs: 60, LearningRate: 0.5, Seed: 3})
	if err := nn.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(nn, x, y); acc < 0.95 {
		t.Fatalf("nn accuracy on XOR = %v", acc)
	}
}

func TestNeuralNetworkDeterministicPerSeed(t *testing.T) {
	x, y := linearData(200, 9)
	a := NewNeuralNetwork(NNParams{Seed: 42, Epochs: 3})
	b := NewNeuralNetwork(NNParams{Seed: 42, Epochs: 3})
	if err := a.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if a.PredictProba(x[i]) != b.PredictProba(x[i]) {
			t.Fatal("same seed must give identical networks")
		}
	}
}

func nbDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	s := &dataset.Schema{
		Target: "y",
		Attrs: []dataset.Attr{
			{Name: "a", Values: []string{"0", "1"}},
			{Name: "b", Values: []string{"0", "1", "2"}},
		},
	}
	d := dataset.New(s)
	r := stats.NewRNG(10)
	for i := 0; i < 500; i++ {
		a := int32(r.Intn(2))
		b := int32(r.Intn(3))
		// y strongly follows a.
		label := int8(a)
		if r.Float64() < 0.1 {
			label = 1 - label
		}
		d.Append([]int32{a, b}, label)
	}
	return d
}

func TestNaiveBayes(t *testing.T) {
	d := nbDataset(t)
	var nb NaiveBayes
	if err := nb.FitDataset(d); err != nil {
		t.Fatal(err)
	}
	if p := nb.ProbaRow([]int32{1, 0}); p < 0.7 {
		t.Fatalf("P(y=1|a=1) = %v, want high", p)
	}
	if p := nb.ProbaRow([]int32{0, 0}); p > 0.3 {
		t.Fatalf("P(y=1|a=0) = %v, want low", p)
	}
	probs := nb.ProbaDataset(d)
	if len(probs) != d.Len() {
		t.Fatal("ProbaDataset length")
	}
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

func TestNaiveBayesWeighted(t *testing.T) {
	s := &dataset.Schema{Target: "y", Attrs: []dataset.Attr{{Name: "a", Values: []string{"0", "1"}}}}
	d := dataset.New(s)
	// Same feature, conflicting labels, heavy positive weight.
	d.AppendWeighted([]int32{0}, 1, 10)
	d.AppendWeighted([]int32{0}, 0, 1)
	var nb NaiveBayes
	if err := nb.FitDataset(d); err != nil {
		t.Fatal(err)
	}
	if p := nb.ProbaRow([]int32{0}); p < 0.7 {
		t.Fatalf("weighted NB proba = %v", p)
	}
	if err := (&NaiveBayes{}).FitDataset(dataset.New(s)); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 4 TN, 2 FN.
	for i := 0; i < 3; i++ {
		c.Observe(1, 1, 1)
	}
	c.Observe(0, 1, 1)
	for i := 0; i < 4; i++ {
		c.Observe(0, 0, 1)
	}
	c.Observe(1, 0, 1)
	c.Observe(1, 0, 1)
	if got := c.Accuracy(); got != 0.7 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := c.FPR(); got != 0.2 {
		t.Fatalf("FPR = %v", got)
	}
	if got := c.FNR(); got != 0.4 {
		t.Fatalf("FNR = %v", got)
	}
	if got := c.TPR(); got != 0.6 {
		t.Fatalf("TPR = %v", got)
	}
	if got := c.PositiveRate(); got != 0.4 {
		t.Fatalf("PositiveRate = %v", got)
	}
	if got := c.ErrorRate(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("ErrorRate = %v", got)
	}
	var empty Confusion
	if empty.Accuracy() != 0 || empty.FPR() != 0 || empty.FNR() != 0 || empty.PositiveRate() != 0 {
		t.Fatal("empty confusion must return zeros")
	}
}

func TestNewConfusion(t *testing.T) {
	y := []int8{1, 0, 1, 0}
	pred := []int{1, 1, 0, 0}
	c := NewConfusion(y, pred)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion %+v", c)
	}
}

func TestModelTrainPredict(t *testing.T) {
	s := &dataset.Schema{
		Target: "y",
		Attrs: []dataset.Attr{
			{Name: "f", Values: []string{"lo", "hi"}, Ordered: true},
		},
	}
	d := dataset.New(s)
	r := stats.NewRNG(11)
	for i := 0; i < 300; i++ {
		v := int32(r.Intn(2))
		label := int8(v)
		if r.Float64() < 0.05 {
			label = 1 - label
		}
		d.Append([]int32{v}, label)
	}
	m, err := Train(d, NewDecisionTree(TreeParams{}))
	if err != nil {
		t.Fatal(err)
	}
	preds := m.Predict(d)
	c := NewConfusion(d.Labels, preds)
	if c.Accuracy() < 0.9 {
		t.Fatalf("model accuracy = %v", c.Accuracy())
	}
	probs := m.PredictProba(d)
	if len(probs) != d.Len() {
		t.Fatal("proba length")
	}
}

func TestNewClassifierKinds(t *testing.T) {
	for _, k := range AllModels {
		c, err := NewClassifier(k, 1)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if c == nil {
			t.Fatalf("nil classifier for %s", k)
		}
		x, y := linearData(100, 12)
		if err := c.Fit(x, y, nil); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	if _, err := NewClassifier(ModelKind("nope"), 1); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown kind = %v, want ErrUnknownModel", err)
	}
}

func TestGridSearch(t *testing.T) {
	s := &dataset.Schema{
		Target: "y",
		Attrs: []dataset.Attr{
			{Name: "a", Values: []string{"0", "1"}},
			{Name: "b", Values: []string{"0", "1"}},
		},
	}
	d := dataset.New(s)
	r := stats.NewRNG(13)
	for i := 0; i < 400; i++ {
		a, b := int32(r.Intn(2)), int32(r.Intn(2))
		label := int8(0)
		if a != b {
			label = 1
		}
		d.Append([]int32{a, b}, label)
	}
	// A depth-1 stump cannot learn XOR; a depth-3 tree can. Grid search
	// must rank the deeper tree first.
	points := []GridPoint{
		{Name: "stump", Build: func(seed int64) Classifier {
			return NewDecisionTree(TreeParams{MaxDepth: 1, Seed: seed})
		}},
		{Name: "deep", Build: func(seed int64) Classifier {
			return NewDecisionTree(TreeParams{MaxDepth: 3, Seed: seed})
		}},
	}
	res, err := GridSearch(d, points, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Point.Name != "deep" {
		t.Fatalf("grid search ranked %q first", res[0].Point.Name)
	}
	if res[0].Accuracy < 0.95 || res[1].Accuracy > 0.8 {
		t.Fatalf("accuracies: %v / %v", res[0].Accuracy, res[1].Accuracy)
	}
	if _, err := GridSearch(d, nil, 3, 1); err == nil {
		t.Fatal("empty grid must error")
	}
}

func TestDefaultGrids(t *testing.T) {
	for _, k := range AllModels {
		grid, err := DefaultGrid(k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if len(grid) < 2 {
			t.Fatalf("grid for %s too small", k)
		}
		for _, pt := range grid {
			if pt.Build == nil || pt.Name == "" {
				t.Fatalf("bad grid point for %s", k)
			}
		}
	}
	if _, err := DefaultGrid(ModelKind("nope")); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown grid = %v, want ErrUnknownModel", err)
	}
}

func TestWeightedSamplerDistribution(t *testing.T) {
	w := []float64{1, 0, 3}
	s := stats.NewWeightedSampler(w)
	r := stats.NewRNG(14)
	counts := make([]int, 3)
	for i := 0; i < 4000; i++ {
		counts[s.Draw(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("draw ratio %v, want ~3", ratio)
	}
}

func TestBrierAndLogLoss(t *testing.T) {
	labels := []int8{1, 0, 1, 0}
	perfect := []float64{1, 0, 1, 0}
	if got := Brier(perfect, labels); got != 0 {
		t.Fatalf("perfect Brier = %v", got)
	}
	uninformative := []float64{0.5, 0.5, 0.5, 0.5}
	if got := Brier(uninformative, labels); got != 0.25 {
		t.Fatalf("coin-flip Brier = %v", got)
	}
	// Log loss of the constant 0.5 prediction is ln 2.
	if got := LogLoss(uninformative, labels); math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("coin-flip LogLoss = %v", got)
	}
	// Overconfident wrong predictions stay finite.
	wrong := []float64{0, 1, 0, 1}
	if got := LogLoss(wrong, labels); math.IsInf(got, 0) || got < 20 {
		t.Fatalf("confident-wrong LogLoss = %v", got)
	}
	if Brier(nil, nil) != 0 || LogLoss(nil, nil) != 0 {
		t.Fatal("empty inputs must return 0")
	}
	// Better-calibrated probabilities score lower on both.
	good := []float64{0.9, 0.1, 0.8, 0.2}
	if Brier(good, labels) >= Brier(uninformative, labels) {
		t.Fatal("calibrated Brier should beat coin flip")
	}
	if LogLoss(good, labels) >= LogLoss(uninformative, labels) {
		t.Fatal("calibrated LogLoss should beat coin flip")
	}
}

func TestFeatureImportance(t *testing.T) {
	// Feature 0 fully determines the label; feature 1 is noise. The
	// tree must credit (nearly) all importance to feature 0.
	r := stats.NewRNG(31)
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a, b := float64(r.Intn(2)), r.Float64()
		x = append(x, []float64{a, b})
		y = append(y, a)
	}
	tree := NewDecisionTree(TreeParams{MaxDepth: 3})
	if tree.FeatureImportance() != nil {
		t.Fatal("untrained tree must report nil importance")
	}
	if err := tree.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	imp := tree.FeatureImportance()
	if len(imp) != 2 {
		t.Fatalf("importance width %d", len(imp))
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %v", imp)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
	if imp[0] < 0.95 {
		t.Fatalf("deterministic feature credited only %v", imp[0])
	}
}

func TestForestFeatureImportance(t *testing.T) {
	r := stats.NewRNG(33)
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a, b := float64(r.Intn(2)), r.Float64()
		x = append(x, []float64{a, b})
		y = append(y, a)
	}
	f := NewRandomForest(ForestParams{Trees: 10, MaxDepth: 3, Seed: 1, MaxFeatures: 2})
	if f.FeatureImportance() != nil {
		t.Fatal("untrained forest must report nil importance")
	}
	if err := f.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance()
	if len(imp) != 2 || imp[0] < imp[1] {
		t.Fatalf("forest importance %v", imp)
	}
}

func TestEncodingColumnNames(t *testing.T) {
	s := &dataset.Schema{
		Target: "y",
		Attrs: []dataset.Attr{
			{Name: "age", Values: []string{"a", "b", "c"}, Ordered: true},
			{Name: "race", Values: []string{"x", "y", "z"}},
			{Name: "sex", Values: []string{"m", "f"}},
		},
	}
	e := dataset.NewEncoding(s)
	names := e.ColumnNames()
	want := []string{"age", "race=x", "race=y", "race=z", "sex"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}
