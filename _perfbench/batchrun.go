package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/remedy"
)

// recordedDigests are the output digests of the batch workloads at
// defaultSeed, one per input dataset. A pass at that seed whose digest
// differs has produced a wrong answer.
var recordedDigests = map[string][]string{
	"pipeline-adult": {"95f813de6511d2a573e75b436bdc4252f51545971905dfe6c48c040bcdab160e"},
	"identify-wide": {
		"56ec8d2830720c0328f9e47e2d673c4a51d4ee836de40c3231c0d10bf04d7bf0",
		"b678d8c252b83c9de25cbc30d9ad47cada0a907bb9ebe304bf1e1aba668635db",
		"dd641fbfe5b4f1cfff5e416d791f2367079d33be2c992c2066d8d417823d3aca",
		"638ef86bf3b9a8af0b964ddfcba5f2b67c49f85cf4d16c028a9fe1c79dce085f",
	},
}

type passFunc func(ctx context.Context, p *meter, d *dataset.Dataset, seed int64) (passOut, error)

// batchInput is one of a run's input datasets and the seed it and its
// pass draw from.
type batchInput struct {
	d    *dataset.Dataset
	seed int64
}

func runPipeline(ctx context.Context, o options) (*report, error) {
	rep, err := runBatch(ctx, o, 1, pipelineSetup, pipelinePass)
	if err != nil || o.trace {
		return rep, err
	}
	return rep, pipelineStages(ctx, o, rep)
}

// pipelineStageRounds is how many times pipelineStages times the
// identify and remedy stages.
const pipelineStageRounds = 12

// pipelineStages times the pipeline's identify and PS remedy stages on
// their own. They are about 2% of a pass, short enough that a garbage
// collection left over from the fits or one seed's draw of biased
// regions moves them, so each starts after a collection, they are
// repeated over the training splits of several draws from the seed,
// calibrated round by round, and reported as medians. Repeats on the
// same draw must agree.
func pipelineStages(ctx context.Context, o options, rep *report) error {
	var trains []batchInput
	for k := 0; k < draws; k++ {
		d, err := pipelineSetup(subSeed(o.seed, k))
		if err != nil {
			return err
		}
		train, _ := d.StratifiedSplit(0.7, subSeed(o.seed, k))
		trains = append(trains, batchInput{d: train, seed: subSeed(o.seed, k)})
	}
	var identifies, remedies []float64
	digests := map[int]string{}
	p := &meter{}
	cal := calibrate()
	for i := 0; i < pipelineStageRounds; i++ {
		in := trains[i%len(trains)]
		rep.attempted++
		runtime.GC()
		t := time.Now()
		ibs, err := identifyIBS(ctx, p, in.d, pipelineCfg)
		identified := time.Since(t)
		var remedied *dataset.Dataset
		var remedyTime time.Duration
		if err == nil {
			runtime.GC()
			t = time.Now()
			remedied, err = applyRemedy(ctx, p, in.d, pipelineCfg, remedy.PreferentialSampling, in.seed)
			remedyTime = time.Since(t)
		}
		next := calibrate()
		sp := speed(cal, next)
		cal = next
		if err != nil {
			rep.fail("stage round %d: %v", i+1, err)
			continue
		}
		identifies = append(identifies, identified.Seconds()*sp)
		remedies = append(remedies, remedyTime.Seconds()*sp)
		h := sha256.New()
		hashIBS(h, ibs)
		if err := remedied.WriteCSV(h); err != nil {
			return err
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want, ok := digests[i%len(trains)]; ok && got != want {
			rep.fail("stage round %d digest %s, want %s", i+1, got, want)
		}
		digests[i%len(trains)] = got
	}
	rep.e2e["identify_s"] = median(identifies)
	rep.e2e["remedy_s"] = median(remedies)
	rep.e2e["ok_share"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	return nil
}

func runWide(ctx context.Context, o options) (*report, error) {
	return runBatch(ctx, o, draws, wideSetup, widePass)
}

// draws is how many datasets drawn from the seed identify and remedy
// work rotates over: the work depends on how many biased regions a
// draw holds, which varies from seed to seed, and a run's median should
// not hang on one draw.
const draws = 4

// subSeed is the seed of a run's k-th input dataset (k = 0 is the run's
// own seed).
func subSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_000_007 }

// runBatch measures an in-process workload: passes run back to back
// for the run's seconds (half untraced, half traced with -trace 1),
// and every pass's output digest must agree.
func runBatch(ctx context.Context, o options, k int, setup func(int64) (*dataset.Dataset, error), pass passFunc) (*report, error) {
	d, setupS, err := timedSetup(func() ([]batchInput, error) {
		var in []batchInput
		for i := 0; i < k; i++ {
			s := subSeed(o.seed, i)
			d, err := setup(s)
			if err != nil {
				return nil, err
			}
			in = append(in, batchInput{d: d, seed: s})
		}
		return in, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.e2e["setup_s"] = setupS
	budget, minPasses := o.seconds, minE2EPasses
	if o.trace {
		budget, minPasses = o.seconds/2, 1
	}
	runtime.GC()
	rep.notes["peak_rss_window_reset"] = resetPeakRSS()
	plain := passes(ctx, pass, &meter{}, d, budget, minPasses, rep)
	rep.e2e["mem_peak_mb"] = peakRSSMB()
	if len(plain) == 0 {
		return nil, fmt.Errorf("no pass completed: %v", rep.notes["errors"])
	}
	var totals, identifies, remedies, raw, speeds []float64
	for _, p := range plain {
		totals = append(totals, p.total.Seconds()*p.speed)
		identifies = append(identifies, p.identify.Seconds()*p.speed)
		remedies = append(remedies, p.remedy.Seconds()*p.speed)
		raw = append(raw, p.total.Seconds())
		speeds = append(speeds, p.speed)
	}
	rep.e2e["work_s"] = median(totals)
	rep.e2e["identify_s"] = median(identifies)
	rep.e2e["remedy_s"] = median(remedies)
	rep.e2e["max_rate_ok"] = 1 / mean(totals)
	rep.notes["pass_wall_s"] = raw
	rep.notes["pass_speed"] = speeds
	rep.notes["pass_stage_s"] = map[string]float64{"identify": median(identifies), "remedy": median(remedies)}

	var all []passOut
	all = append(all, plain...)
	if o.trace {
		tr := newTracer()
		traced := passes(ctx, pass, &meter{tr: tr}, d, budget, 1, rep)
		if len(traced) == 0 {
			return nil, fmt.Errorf("no traced pass completed: %v", rep.notes["errors"])
		}
		all = append(all, traced...)
		rep.spans = tr.snapshot()
		batchLayers(rep, traced, median(totals))
	}
	checkDigests(rep, o, all)
	rep.e2e["ok_share"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	return rep, nil
}

// minE2EPasses is the fewest passes an untraced run reports a median
// over, even when they take longer than the run's seconds.
const minE2EPasses = 3

// passes runs passes, rotating over the inputs, until budget seconds
// have elapsed and at least min passes ran. A pass that errors counts as
// attempted and failed.
func passes(ctx context.Context, pass passFunc, tmpl *meter, in []batchInput, budget float64, min int, rep *report) []passOut {
	var out []passOut
	start := time.Now()
	cal := calibrate()
	for i := 0; i < min || time.Since(start).Seconds() < budget; i++ {
		p := &meter{tr: tmpl.tr, trace: int64(i + 1), vals: map[string]float64{}}
		rep.attempted++
		po, err := pass(ctx, p, in[i%len(in)].d, in[i%len(in)].seed)
		po.input = i % len(in)
		next := calibrate()
		po.speed = speed(cal, next)
		cal = next
		if err != nil {
			rep.fail("pass %d: %v", i+1, err)
			continue
		}
		po.vals = p.vals
		out = append(out, po)
	}
	return out
}

// checkDigests fails every pass whose digest differs from the recorded
// one (default seed) or from the run's first pass (other seeds).
func checkDigests(rep *report, o options, all []passOut) {
	want := map[int]string{}
	if o.seed == defaultSeed {
		for i, d := range recordedDigests[o.workload] {
			want[i] = d
		}
	}
	for _, p := range all {
		if _, ok := want[p.input]; !ok {
			want[p.input] = p.digest
		}
	}
	rep.notes["digests"] = want
	for i, p := range all {
		if p.digest != want[p.input] {
			rep.fail("pass %d (input %d) digest %s, want %s", i+1, p.input, p.digest, want[p.input])
		}
	}
}

// layerSpans maps per-layer metrics to the benchmark span whose
// per-pass self time they report.
var layerSpans = map[string]string{
	"dataset.split_ms":       "dataset.split",
	"dataset.encode_ms":      "dataset.encode",
	"ml.fit_ms.DT":           "ml.fit.DT",
	"ml.fit_ms.RF":           "ml.fit.RF",
	"ml.fit_ms.LG":           "ml.fit.LG",
	"ml.fit_ms.NN":           "ml.fit.NN",
	"ml.predict_ms":          "ml.predict",
	"divexplorer.explore_ms": "divexplorer.explore",
	"pattern.count_ms":       "pattern.count",
	"core.traverse_ms":       "core.traverse",
	"remedy.apply_ms.US":     "remedy.apply.US",
	"remedy.apply_ms.PS":     "remedy.apply.PS",
	"remedy.apply_ms.MS":     "remedy.apply.MS",
}

// batchLayers derives the per-layer metrics of a traced batch run:
// per-pass self times and counts, each the median over traced passes.
func batchLayers(rep *report, traced []passOut, untracedWork float64) {
	byTrace := selfByTrace(rep.spans)
	for metric, name := range layerSpans {
		rep.layer[metric] = medianSelf(byTrace, name)
	}
	var fitShare, work []float64
	for _, p := range traced {
		work = append(work, p.total.Seconds()*p.speed)
	}
	for trace, m := range byTrace {
		var fit float64
		for _, k := range []string{"ml.fit.DT", "ml.fit.RF", "ml.fit.LG", "ml.fit.NN"} {
			fit += m[k]
		}
		if i := int(trace) - 1; i >= 0 && i < len(traced) {
			fitShare = append(fitShare, fit/ms(traced[i].total))
		}
	}
	rep.layer["ml.fit_share"] = median(fitShare)
	for _, name := range []string{"ml.epochs", "core.alloc_mb", "core.nodes_visited", "core.neighbor_ops",
		"core.regions_flagged", "remedy.alloc_mb", "remedy.rows_added", "remedy.rows_removed", "remedy.rows_flipped"} {
		var vals []float64
		for _, p := range traced {
			vals = append(vals, p.vals[name])
		}
		rep.layer[name] = median(vals)
	}
	rep.layer["trace.overhead_pct"] = (median(work)/untracedWork - 1) * 100
}
