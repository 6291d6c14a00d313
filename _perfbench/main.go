// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks the workload's outputs, and
// prints one JSON result line: the end-to-end metrics of an untraced
// run, or with -trace 1 the per-layer metrics of a traced run.
//
//	bash _perfbench/run.sh --workload pipeline-adult --seed 1 --seconds 30 --trace 0
//
// run.sh builds it, from the root of the checkout, into .bench_build/.
// NOTES.md says why each workload exists, which end-to-end metric each
// layer metric should move, and what the open ROADMAP items predict.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose output digests are recorded in
// recordedDigests.
const defaultSeed = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	correct           bool
	e2e, layer        map[string]float64
	spans             []spanRec
	// notes are printed and saved (percentile levels actually
	// reported, digests, ladder rungs); detail is only saved.
	notes, detail map[string]any
}

func newReport() *report {
	return &report{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]any{}, detail: map[string]any{}}
}

// fail records a failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.noteError(format, args...)
}

// noteError records why an operation failed (the first 20 reasons).
func (r *report) noteError(format string, args ...any) {
	r.correct = false
	errs, _ := r.notes["errors"].([]string)
	if len(errs) < 20 {
		r.notes["errors"] = append(errs, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(ctx context.Context, o options) (*report, error){
	"pipeline-adult": runPipeline,
	"identify-wide":  runWide,
	"serve-mixed":    runServe,
}

// endToEnd and perLayer name every metric with its unit, in the order
// BENCHMARK.json lists them. Every workload reports every metric; a
// per-layer metric of a layer the workload does not exercise reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"ok_share", "share"},
	{"work_s", "s"},
	{"identify_s", "s"},
	{"remedy_s", "s"},
	{"max_rate_ok", "1/s"},
}

var perLayer = []metricDef{
	{"dataset.split_ms", "ms"},
	{"dataset.encode_ms", "ms"},
	{"ml.fit_ms.DT", "ms"},
	{"ml.fit_ms.RF", "ms"},
	{"ml.fit_ms.LG", "ms"},
	{"ml.fit_ms.NN", "ms"},
	{"ml.predict_ms", "ms"},
	{"ml.epochs", "count"},
	{"ml.fit_share", "share"},
	{"divexplorer.explore_ms", "ms"},
	{"pattern.count_ms", "ms"},
	{"core.traverse_ms", "ms"},
	{"core.alloc_mb", "MB"},
	{"core.nodes_visited", "count"},
	{"core.neighbor_ops", "count"},
	{"core.regions_flagged", "count"},
	{"remedy.apply_ms.US", "ms"},
	{"remedy.apply_ms.PS", "ms"},
	{"remedy.apply_ms.MS", "ms"},
	{"remedy.alloc_mb", "MB"},
	{"remedy.rows_added", "count"},
	{"remedy.rows_removed", "count"},
	{"remedy.rows_flipped", "count"},
	{"serve.job_p50_ms.low", "ms"},
	{"serve.job_p99_ms.low", "ms"},
	{"serve.job_p50_ms.mid", "ms"},
	{"serve.job_p99_ms.mid", "ms"},
	{"serve.job_p50_ms.high", "ms"},
	{"serve.job_p99_ms.high", "ms"},
	{"serve.submit_ms.p50", "ms"},
	{"serve.submit_ms.p99", "ms"},
	{"serve.upload_ms.p99", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p99", "ms"},
	{"serve.run_ms.identify", "ms"},
	{"serve.run_ms.train", "ms"},
	{"serve.run_ms.audit", "ms"},
	{"serve.run_ms.remedy", "ms"},
	{"serve.refused", "count"},
	{"serve.cache_hit_ratio", "share"},
	{"serve.tenant_share_dev", "share"},
	{"durable.appends_per_job", "count"},
	{"durable.bytes_per_job", "B"},
	{"durable.recover_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.polls_per_job", "count"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the run measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics from an untraced one")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for the run's artifact and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	wl, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	st := newStamp(o.outDir)
	ctx := context.Background()
	rep, err := wl(ctx, o)
	st.finish()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	defs := endToEnd
	vals := rep.e2e
	if o.trace {
		defs, vals = perLayer, rep.layer
	}
	line := resultLine{Correct: rep.correct && rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !o.trace {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", o.workload, d.name)
			return 1
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if line.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted nothing\n", o.workload)
		return 1
	}
	if err := writeArtifact(o, st, rep, line); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	stampLine, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stampLine)
	for _, k := range sortedKeys(rep.notes) {
		v, _ := json.Marshal(rep.notes[k])
		fmt.Fprintf(stdout, "note %s %s\n", k, v)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// writeArtifact saves the run's stamp, notes, result and (traced) spans
// under the output directory.
func writeArtifact(o options, st stamp, rep *report, line resultLine) error {
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace]))
	doc := map[string]any{"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "stamp": st, "notes": rep.notes, "detail": rep.detail, "result": line}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
		return err
	}
	if len(rep.spans) == 0 {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := writeSpans(f, rep.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// setupRepeats is how many times a run builds its inputs; setup_s is
// the median.
const setupRepeats = 5

// timedSetup builds the inputs setupRepeats times and returns the last
// build with the median build time in seconds, rescaled to the
// reference machine speed (see calibrate.go). discard, when set,
// releases each earlier build.
func timedSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var out T
	var times []float64
	cal0 := calibrate()
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && discard != nil {
			discard(out)
		}
		runtime.GC()
		t := time.Now()
		v, err := build()
		times = append(times, time.Since(t).Seconds())
		if err != nil {
			return out, 0, fmt.Errorf("set-up: %w", err)
		}
		out = v
	}
	return out, median(times) * speed(cal0, calibrate()), nil
}
