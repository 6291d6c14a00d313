package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/divexplorer"
	"repro/internal/experiments"
	"repro/internal/fairness"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/synth"
)

// meter carries one pass's instruments. Untraced, tr is nil and every
// call into the library runs bare: no spans, no metrics registry.
type meter struct {
	tr    *tracer
	trace int64
	// vals collects this pass's per-layer counts and allocations.
	vals map[string]float64
}

func (p *meter) traced() bool { return p.tr != nil }

// counted runs fn under a fresh metrics registry (traced passes only)
// and adds the named counters' values to the pass's layer values.
func (p *meter) counted(ctx context.Context, fn func(context.Context) error, names map[string]string) error {
	if !p.traced() {
		return fn(ctx)
	}
	reg := obs.NewRegistry()
	err := fn(obs.WithMetrics(ctx, reg))
	snap := reg.Snapshot()
	for counter, layer := range names {
		p.vals[layer] += float64(snap.Counters[counter])
	}
	return err
}

// allocMB returns the bytes allocated so far, in MiB (traced passes
// only; ReadMemStats stops the world).
func (p *meter) allocMB() float64 {
	if !p.traced() {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// passOut is what one pass reports: its timed stages and the digest of
// its outputs, computed after the clock stopped.
type passOut struct {
	total, identify, remedy time.Duration
	// input is the index of the dataset the pass ran on.
	input int
	// speed is the machine speed the calibrations around the pass saw.
	speed  float64
	digest string
	vals   map[string]float64
}

// identifyIBS runs optimized identification the way the benchmark
// times it: build the hierarchy and count every node with one worker
// (pattern), then traverse the preloaded lattice (core).
func identifyIBS(ctx context.Context, p *meter, d *dataset.Dataset, cfg core.Config) (*core.Result, error) {
	_, s := p.tr.child(ctx, "pattern.count")
	h, err := core.NewHierarchy(d)
	if err == nil {
		err = h.PreloadCtx(ctx, 1)
	}
	s.end()
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	var res *core.Result
	a0 := p.allocMB()
	tctx, s := p.tr.child(ctx, "core.traverse")
	err = p.counted(tctx, func(ctx context.Context) error {
		var ierr error
		res, ierr = h.IdentifyOptimizedCtx(ctx, cfg)
		return ierr
	}, map[string]string{
		"identify.nodes_visited":   "core.nodes_visited",
		"identify.neighbor_ops":    "core.neighbor_ops",
		"identify.regions_flagged": "core.regions_flagged",
	})
	s.end()
	if p.traced() {
		p.vals["core.alloc_mb"] += p.allocMB() - a0
	}
	if err != nil {
		return nil, fmt.Errorf("identify: %w", err)
	}
	return res, nil
}

// applyRemedy runs one remedy technique on d.
func applyRemedy(ctx context.Context, p *meter, d *dataset.Dataset, cfg core.Config, tech remedy.Technique, seed int64) (*dataset.Dataset, error) {
	var out *dataset.Dataset
	a0 := p.allocMB()
	rctx, s := p.tr.child(ctx, "remedy.apply."+string(tech))
	err := p.counted(rctx, func(ctx context.Context) error {
		var rerr error
		out, _, rerr = remedy.ApplyCtx(ctx, d, remedy.Options{Identify: cfg, Technique: tech, Seed: seed})
		return rerr
	}, map[string]string{
		"remedy.samples_added":   "remedy.rows_added",
		"remedy.samples_removed": "remedy.rows_removed",
		"remedy.samples_flipped": "remedy.rows_flipped",
	})
	s.end()
	if p.traced() {
		p.vals["remedy.alloc_mb"] += p.allocMB() - a0
	}
	if err != nil {
		return nil, fmt.Errorf("remedy %s: %w", tech, err)
	}
	return out, nil
}

// evaluate trains one classifier kind and scores it on test as the
// paper's evaluation does (experiments.Score). The traced pass splits
// training into its encode and fit calls.
func evaluate(ctx context.Context, p *meter, train, test *dataset.Dataset, kind ml.ModelKind, seed int64) (experiments.EvalResult, error) {
	var m *ml.Model
	if !p.traced() {
		var err error
		if m, err = ml.TrainKindCtx(ctx, train, kind, seed); err != nil {
			return experiments.EvalResult{}, err
		}
	} else {
		_, s := p.tr.child(ctx, "dataset.encode")
		enc := dataset.NewEncoding(train.Schema)
		x, y, w := enc.Encode(train)
		s.end()
		clf, err := ml.NewClassifier(kind, seed)
		if err != nil {
			return experiments.EvalResult{}, err
		}
		fctx, s := p.tr.child(ctx, "ml.fit."+string(kind))
		err = p.counted(fctx, func(ctx context.Context) error {
			if f, ok := clf.(ml.ContextFitter); ok {
				return f.FitCtx(ctx, x, y, w)
			}
			return clf.Fit(x, y, w)
		}, map[string]string{"ml.epochs": "ml.epochs"})
		s.end()
		if err != nil {
			return experiments.EvalResult{}, err
		}
		m = &ml.Model{Enc: enc, Clf: clf}
	}
	_, s := p.tr.child(ctx, "ml.predict")
	preds := m.Predict(test)
	s.end()
	_, s = p.tr.child(ctx, "divexplorer.explore")
	repFPR, err := divexplorer.ExploreCtx(ctx, test, preds, fairness.FPR, divexplorer.Options{})
	var repFNR *divexplorer.Report
	if err == nil {
		repFNR, err = divexplorer.ExploreCtx(ctx, test, preds, fairness.FNR, divexplorer.Options{})
	}
	s.end()
	if err != nil {
		return experiments.EvalResult{}, err
	}
	return experiments.EvalResult{
		IndexFPR:  repFPR.FairnessIndex(experiments.IndexMinSupport),
		IndexFNR:  repFNR.FairnessIndex(experiments.IndexMinSupport),
		Accuracy:  ml.NewConfusion(test.Labels, preds).Accuracy(),
		Violation: repFPR.Violation(),
	}, nil
}

// pipelineCfg is the paper's Adult setting (§V-B2).
var pipelineCfg = core.Config{TauC: 0.5, T: 1}

func pipelineSetup(seed int64) (*dataset.Dataset, error) {
	d := synth.AdultN(synth.AdultSize, seed)
	return d, d.Validate()
}

// pipelinePass is one full paper pipeline: a stratified 70/30 split,
// IBS identification and PS remedy (Lattice) on the training split,
// then DT, RF, LG and NN trained on the original and on the remedied
// training set, each scored on the test split.
func pipelinePass(ctx context.Context, p *meter, d *dataset.Dataset, seed int64) (passOut, error) {
	var out passOut
	start := time.Now()
	ctx, root := p.tr.root(ctx, "pipeline.pass", p.trace)
	_, s := p.tr.child(ctx, "dataset.split")
	train, test := d.StratifiedSplit(0.7, seed)
	s.end()
	t := time.Now()
	ibs, err := identifyIBS(ctx, p, train, pipelineCfg)
	if err != nil {
		root.end()
		return out, err
	}
	out.identify = time.Since(t)
	t = time.Now()
	remedied, err := applyRemedy(ctx, p, train, pipelineCfg, remedy.PreferentialSampling, seed)
	if err != nil {
		root.end()
		return out, err
	}
	out.remedy = time.Since(t)
	var evals []experiments.EvalResult
	for _, set := range []*dataset.Dataset{train, remedied} {
		for _, kind := range ml.AllModels {
			ev, err := evaluate(ctx, p, set, test, kind, seed)
			if err != nil {
				root.end()
				return out, fmt.Errorf("%s: %w", kind, err)
			}
			evals = append(evals, ev)
		}
	}
	root.end()
	out.total = time.Since(start)

	h := sha256.New()
	hashIBS(h, ibs)
	if err := remedied.WriteCSV(h); err != nil {
		return out, err
	}
	for _, ev := range evals {
		hashFloats(h, ev.IndexFPR, ev.IndexFNR, ev.Accuracy, ev.Violation)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// wideAttrs are the eight protected attributes of the paper's
// scalability study (Fig. 9), in its order.
var wideAttrs = []string{"age", "race", "gender", "marital_status", "relationship", "country", "education", "occupation"}

// wideTechniques are the remedies the service can run at this lattice
// width; oversampling exceeds the resource limit there (Fig. 9b).
var wideTechniques = []remedy.Technique{remedy.Undersampling, remedy.PreferentialSampling, remedy.Massaging}

func wideSetup(seed int64) (*dataset.Dataset, error) {
	d, err := pipelineSetup(seed)
	if err != nil {
		return nil, err
	}
	s := d.Schema.Clone()
	if err := s.SetProtected(wideAttrs...); err != nil {
		return nil, err
	}
	return &dataset.Dataset{Schema: s, Rows: d.Rows, Labels: d.Labels, Weights: d.Weights}, nil
}

// widePass identifies the IBS over all 256 lattice nodes, then runs
// each remedy technique on the full dataset.
func widePass(ctx context.Context, p *meter, d *dataset.Dataset, seed int64) (passOut, error) {
	var out passOut
	start := time.Now()
	ctx, root := p.tr.root(ctx, "wide.pass", p.trace)
	ibs, err := identifyIBS(ctx, p, d, pipelineCfg)
	if err != nil {
		root.end()
		return out, err
	}
	out.identify = time.Since(start)
	var remedied []*dataset.Dataset
	for _, tech := range wideTechniques {
		r, err := applyRemedy(ctx, p, d, pipelineCfg, tech, seed)
		if err != nil {
			root.end()
			return out, err
		}
		remedied = append(remedied, r)
	}
	root.end()
	out.total = time.Since(start)
	out.remedy = out.total - out.identify

	h := sha256.New()
	hashIBS(h, ibs)
	for _, r := range remedied {
		if err := r.WriteCSV(h); err != nil {
			return out, err
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// hashIBS writes the IBS: each region's pattern, counts and ratios. The
// work counts of the traversal (Explored, NeighborOps) are left out, so
// a change that prunes more still reproduces the recorded digests.
func hashIBS(w hash.Hash, res *core.Result) {
	fmt.Fprintf(w, "regions=%d\n", len(res.Regions))
	for _, r := range res.Regions {
		fmt.Fprintf(w, "%s n=%d pos=%d nn=%d npos=%d\n", res.Space.String(r.Pattern), r.Counts.N, r.Counts.Pos, r.NeighborCounts.N, r.NeighborCounts.Pos)
		hashFloats(w, r.Ratio, r.NeighborRatio)
	}
}

// hashFloats writes the exact bits of vals (hash writes never fail).
func hashFloats(w hash.Hash, vals ...float64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		w.Write(b[:])
	}
}
