package ml

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/synth"
)

func TestTrainCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := synth.CompasN(300, 41)
	for _, kind := range AllModels {
		clf, err := NewClassifier(kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := TrainCtx(ctx, d, clf); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: TrainCtx = %v, want context.Canceled", kind, err)
		}
	}
}

// TestTrainEpochFault injects a failure at a mid-training epoch for
// each context-aware learner and asserts it aborts with the injected
// error rather than returning a silently half-trained model.
func TestTrainEpochFault(t *testing.T) {
	defer faults.Reset()
	boom := errors.New("epoch checkpoint failed")
	faults.Set(faults.TrainEpoch, func(arg any) error {
		if arg.(int) == 2 {
			return boom
		}
		return nil
	})
	d := synth.CompasN(300, 43)
	for _, kind := range []ModelKind{LG, NN, RF} {
		clf, err := NewClassifier(kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Train(d, clf); !errors.Is(err, boom) {
			t.Fatalf("%s: Train = %v, want injected fault", kind, err)
		}
	}
}

// TestForestCancelDiscardsPartialEnsemble cancels forest training
// after a few trees and asserts no partial ensemble survives and no
// tree goroutine outlives FitCtx.
func TestForestCancelDiscardsPartialEnsemble(t *testing.T) {
	defer faults.Reset()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	faults.Set(faults.TrainEpoch, func(arg any) error {
		if arg.(int) == 3 {
			cancel()
		}
		return nil
	})
	f := NewRandomForest(ForestParams{Trees: 10, Seed: 1})
	d := synth.CompasN(300, 45)
	enc := dataset.NewEncoding(d.Schema)
	x, y, w := enc.Encode(d)
	if err := f.FitCtx(ctx, x, y, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitCtx = %v, want context.Canceled", err)
	}
	if f.trees != nil {
		t.Fatal("cancelled forest must discard its partial ensemble")
	}
	if p := f.PredictProba(make([]float64, enc.Width())); p != 0.5 {
		t.Fatalf("untrained forest proba = %v, want 0.5", p)
	}
	assertGoroutinesSettle(t, base)
}

// TestForestTreePanicIsError crashes one tree goroutine through the
// ml.forest.tree fault point: FitCtx must return an error naming the
// tree, discard the ensemble, and leave no tree goroutine behind.
func TestForestTreePanicIsError(t *testing.T) {
	defer faults.Reset()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	faults.Set(faults.ForestTree, func(arg any) error {
		if arg.(int) == 3 {
			panic("tree worker down")
		}
		return nil
	})
	f := NewRandomForest(ForestParams{Trees: 10, Seed: 1})
	x, y, w := dataset.NewEncoding(synth.CompasSchema()).Encode(synth.CompasN(300, 47))
	err := f.FitCtx(context.Background(), x, y, w)
	if err == nil || !strings.Contains(err.Error(), "tree 3") || !strings.Contains(err.Error(), "tree worker down") {
		t.Fatalf("FitCtx = %v, want the panic of tree 3 as an error", err)
	}
	if f.trees != nil {
		t.Fatal("a forest with a crashed tree must discard its ensemble")
	}
	assertGoroutinesSettle(t, base)
}

// TestForestSameModelAtAnyGOMAXPROCS fits the same forest with one and
// with four tree goroutines and requires identical serialized models.
func TestForestSameModelAtAnyGOMAXPROCS(t *testing.T) {
	d := synth.CompasN(800, 49)
	x, y, w := dataset.NewEncoding(d.Schema).Encode(d)
	fit := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f := NewRandomForest(ForestParams{Trees: 12, MaxDepth: 8, Seed: 5})
		if err := f.Fit(x, y, w); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if one, four := fit(1), fit(4); !bytes.Equal(one, four) {
		t.Fatal("forest fitted at GOMAXPROCS 4 differs from the one fitted at GOMAXPROCS 1")
	}
}

// assertGoroutinesSettle waits up to two seconds for the goroutine
// count to fall back to base: a goroutine that has signalled its last
// WaitGroup.Done may still be exiting when the fit returns.
func assertGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
