package ml

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

var fitSink Classifier

// BenchmarkFit times one default-parameter fit of each learner on the
// encoded 70% stratified split of full-size synthetic Adult (31 655
// rows, 37 columns), the training set of a paper pipeline pass.
func BenchmarkFit(b *testing.B) {
	d := synth.AdultN(synth.AdultSize, 1)
	train, _ := d.StratifiedSplit(0.7, 1)
	x, y, w := dataset.NewEncoding(train.Schema).Encode(train)
	for _, kind := range AllModels {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clf, err := NewClassifier(kind, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := clf.Fit(x, y, w); err != nil {
					b.Fatal(err)
				}
				fitSink = clf
			}
		})
	}
}
