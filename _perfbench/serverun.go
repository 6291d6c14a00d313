package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/durable"
	"repro/internal/serve"
	"repro/internal/synth"
)

// rungOut is one ladder rung's outcome.
type rungOut struct {
	Name string  `json:"name"`
	Rate float64 `json:"rate"`
	// Throughput is the closed capacity rung's completions per second.
	Throughput float64 `json:"throughput,omitempty"`
	Sent       int     `json:"sent"`
	Jobs       int     `json:"jobs"`
	Failed     int     `json:"failed"`
	P50MS      float64 `json:"p50_ms"`
	TailMS     float64 `json:"tail_ms"`
	TailLevel  float64 `json:"tail_level"`
	Pass       bool    `json:"pass"`
	Reason     string  `json:"reason,omitempty"`
}

// ladderOut is one ladder's measurements.
type ladderOut struct {
	g                 *ladderRun
	bad               []string
	rungs             []rungOut
	maxRate           float64 // capacity, jobs completed per second, rescaled
	rawRate           float64 // capacity as measured
	maxRung           int     // last rung of the passing run from the bottom
	attempted, failed int
	appends, bytes    float64 // journal appends and bytes per submitted job
}

func runServe(ctx context.Context, o options) (*report, error) {
	dataRoot := filepath.Join(o.outDir, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)
	var csvs [][]byte
	builds := 0
	setup := func() (*serveEnv, error) {
		builds++
		csvs = nil
		for k := 0; k < draws; k++ {
			csv, err := compasCSV(synth.CompasSize, subSeed(o.seed, k))
			if err != nil {
				return nil, err
			}
			csvs = append(csvs, csv)
		}
		return startServe(ctx, filepath.Join(dataRoot, fmt.Sprintf("server-%d", builds)), csvs)
	}
	// An earlier set-up's close error does not bear on the run.
	env, setupS, err := timedSetup(setup, func(e *serveEnv) { _ = e.close(ctx) })
	if err != nil {
		return nil, err
	}
	var refs [][]serve.IdentifyResult
	for _, csv := range csvs {
		ref, err := identifyReference(ctx, csv)
		if err != nil {
			return nil, errors.Join(err, env.close(ctx))
		}
		refs = append(refs, ref)
	}
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	sched := schedule(o.seed, budget)

	rep := newReport()
	rep.e2e["setup_s"] = setupS
	// The reference service runs while the server is idle: before the
	// ladder and in its pauses before the mid and the high rung. Each of
	// the low and mid rungs is rescaled by the service's readings just
	// before and just after it.
	var probes [3][]float64
	probes[0], err = probeService(ctx, dataRoot)
	if err != nil {
		return nil, errors.Join(err, env.close(ctx))
	}
	pause := func(ctx context.Context, rung int) error {
		var err error
		probes[rung-rungLow], err = probeService(ctx, dataRoot)
		return err
	}
	runtime.GC()
	rep.notes["peak_rss_window_reset"] = resetPeakRSS()
	plain, err := runLadder(ctx, env, sched, budget, nil, refs, pause)
	if err = errors.Join(err, env.close(ctx)); err != nil {
		return nil, err
	}
	rep.e2e["mem_peak_mb"] = plain.g.memPeakMB
	// A reading is the first quartile of the service's latencies, the
	// statistic work_s and identify_s report: a stall that hits a few
	// of its requests does not move it.
	var probeMS []float64
	for _, p := range probes {
		probeMS = append(probeMS, percentile(p, 25))
	}
	rep.notes["probe_ms"] = probeMS
	// factor[r] rescales times measured in rung r to the reference
	// machine.
	factor := map[int]float64{
		rungLow: probeRefMS / percentile(append(append([]float64(nil), probes[0]...), probes[1]...), 25),
		rungMid: probeRefMS / percentile(append(append([]float64(nil), probes[1]...), probes[2]...), 25),
	}
	noteFailures(rep, plain)
	rep.notes["rungs"] = plain.rungs
	rep.detail["jobs"] = plain.jobRows()
	rep.e2e["ok_share"] = float64(plain.attempted-plain.failed) / float64(plain.attempted)
	// work_s is the latency of identify jobs, half the traffic, at the
	// low rate: the median over all kinds sits between the fast and the
	// slow kinds and jumped from run to run, and at the mid rate the
	// journal's queue amplifies every slow fsync of the host. work_s and
	// identify_s report the first quartile of their jobs: a shared host
	// only adds time, stalling some jobs and not others, and the lower
	// quartile is what the program sets and the host's stalls move least.
	// remedy_s sums the techniques' medians, as identify-wide sums its
	// three Applies: one median over all remedy jobs fell on the border
	// between the techniques' run times and jumped. Remedy jobs are long
	// enough for stalls to average out, and a technique has too few jobs
	// for a quartile.
	identify := ofKind("identify", "")
	// times returns work_s, identify_s and remedy_s in ms, rescaled by
	// factor when it is set.
	times := func(factor map[int]float64) (work, ident, rem float64) {
		work = percentile(plain.jobTimes(identify, false, factor, rungLow), 25)
		ident = percentile(plain.jobTimes(identify, true, factor, rungLow, rungMid), 25)
		for _, tech := range remedyTechniques {
			rem += median(plain.jobTimes(ofKind("remedy", tech), true, factor, rungLow, rungMid))
		}
		return work, ident, rem
	}
	wallWork, wallIdentify, wallRemedy := times(nil)
	rep.notes["wall"] = map[string]float64{"work_s": wallWork / 1000, "identify_s": wallIdentify / 1000, "remedy_s": wallRemedy / 1000}
	workS, identifyS, remedyS := times(factor)
	rep.e2e["work_s"] = workS / 1000
	rep.e2e["identify_s"] = identifyS / 1000
	rep.e2e["remedy_s"] = remedyS / 1000
	// The capacity rung is CPU-bound, like the batch workloads, and is
	// rescaled by the calibration kernel timed between its segments.
	rep.e2e["max_rate_ok"] = plain.maxRate
	rep.notes["capacity"] = map[string]any{"raw": plain.rawRate, "segment_raw": plain.g.capSegRaw, "kernel_s": plain.g.capCal}
	if !o.trace {
		return rep, nil
	}

	env, err = setup()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runLadder(ctx, env, sched, budget, tr, refs, nil)
	if err = errors.Join(err, env.close(ctx)); err != nil {
		return nil, err
	}
	noteFailures(rep, traced)
	rep.notes["traced_rungs"] = traced.rungs
	rep.spans = tr.snapshot()
	recoverMS, err := timeRecovery(ctx, env.dir)
	if err != nil {
		return nil, err
	}
	serveLayers(rep, traced, recoverMS)
	rep.layer["trace.overhead_pct"] = (percentile(traced.jobTimes(identify, false, nil, rungLow), 25)/wallWork - 1) * 100
	return rep, nil
}

// noteFailures adds a ladder's failed operations to the report.
func noteFailures(rep *report, lo *ladderOut) {
	rep.attempted += lo.attempted
	rep.failed += lo.failed
	for i, why := range lo.bad {
		if why != "" {
			rep.noteError("arrival %d (%s): %s", i, lo.g.sched[i].kind, why)
		}
	}
}

// timeRecovery reopens a closed server's data directory: journal
// replay, dataset reload and job-table rebuild.
func timeRecovery(ctx context.Context, dir string) (float64, error) {
	t := time.Now()
	store, err := durable.Open(ctx, dir, true)
	if err != nil {
		return 0, fmt.Errorf("reopen data dir: %w", err)
	}
	srv, err := serve.NewDurable(ctx, remedydConfig(), store)
	elapsed := ms(time.Since(t))
	if err != nil {
		return 0, errors.Join(fmt.Errorf("recover: %w", err), store.Close())
	}
	return elapsed, errors.Join(srv.Shutdown(ctx), store.Close())
}

// runLadder drives env through the ladder of a run of the given
// seconds, checks every output and evaluates each rung against the
// limits. pause, when set, runs before the mid and before the high rung
// (see ladderRun).
func runLadder(ctx context.Context, env *serveEnv, sched []arrival, seconds float64, tr *tracer, refs [][]serve.IdentifyResult, pause func(context.Context, int) error) (*ladderOut, error) {
	before, err := env.metricsSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	// The pause moves arrivals back, so each ladder gets its own copy.
	g := &ladderRun{env: env, sched: append([]arrival(nil), sched...), tr: tr, pause: pause,
		capFor: time.Duration(ladder[rungCap].share * seconds * float64(time.Second))}
	if err := g.drive(ctx); err != nil {
		return nil, fmt.Errorf("ladder did not drain: %w", err)
	}
	after, err := env.metricsSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	bad, err := g.verify(ctx, refs)
	if err != nil {
		return nil, err
	}
	lo := &ladderOut{g: g, bad: bad, attempted: g.sent, maxRung: -1}
	jobs := 0
	for i := 0; i < g.sent; i++ {
		if bad[i] != "" {
			lo.failed++
		}
		if g.obs[i].submitted {
			jobs++
		}
	}
	if jobs > 0 {
		lo.appends = float64(after.Counters["durable.journal_appends"]-before.Counters["durable.journal_appends"]) / float64(jobs)
		lo.bytes = float64(after.Counters["durable.journal_bytes"]-before.Counters["durable.journal_bytes"]) / float64(jobs)
	}
	lo.evaluate()
	return lo, nil
}

// evaluate computes each rung's latency percentiles and verdict. An
// open rung passes when all its arrivals succeeded, its tail latency is
// within latencyLimit, and its last job finished within paceGrace of
// the rung's end. maxRung is the highest rung of the unbroken passing
// run from the bottom. The closed capacity rung passes when all its
// operations succeeded; its throughput is the capacity.
func (lo *ladderOut) evaluate() {
	g := lo.g
	var rungStart time.Duration
	climbing := true
	for ri, rg := range ladder {
		ro := rungOut{Name: rg.name, Rate: rg.rate}
		var lat []float64
		var finished []time.Time
		var lastFinish time.Time
		for i := 0; i < g.sent; i++ {
			if g.sched[i].rung != ri {
				continue
			}
			ro.Sent++
			if lo.bad[i] != "" {
				ro.Failed++
				continue
			}
			if g.sched[i].kind == "upload" {
				continue
			}
			fin := *g.obs[i].final.FinishedAt
			lat = append(lat, ms(fin.Sub(g.start.Add(g.sched[i].at))))
			finished = append(finished, fin)
			if fin.After(lastFinish) {
				lastFinish = fin
			}
		}
		rungEnd := rungStart
		for _, a := range g.sched[:g.sent] {
			if a.rung == ri && a.at > rungEnd {
				rungEnd = a.at
			}
		}
		ro.Jobs = len(lat)
		ro.P50MS = median(lat)
		ro.TailMS, ro.TailLevel = tail(lat)
		switch {
		case ro.Sent == 0:
			ro.Reason = "no arrivals sent"
		case ro.Failed > 0:
			ro.Reason = fmt.Sprintf("%d operations failed", ro.Failed)
		case rg.closed:
			ro.Pass = true
		case ro.TailMS > ms(latencyLimit):
			ro.Reason = fmt.Sprintf("p%g latency %.0f ms over the limit", ro.TailLevel, ro.TailMS)
		case lastFinish.Sub(g.start.Add(rungEnd)) > paceGrace:
			ro.Reason = "completions fell behind arrivals"
		default:
			ro.Pass = true
		}
		switch {
		case ri == rungWarm:
			ro.Pass, ro.Reason = false, "warm-up, not measured"
		case rg.closed:
			ro.Throughput, lo.rawRate = g.capThroughput(finished)
			if ro.Pass {
				lo.maxRate = ro.Throughput
			}
		case climbing && ro.Pass:
			lo.maxRung = ri
		default:
			climbing = false
		}
		lo.rungs = append(lo.rungs, ro)
		rungStart = rungEnd
	}
}

// capRamp is how long each segment of the capacity rung runs before
// its completions are counted: the time the tenants' queues take to
// fill on an idle server.
const capRamp = 250 * time.Millisecond

// capWindow is the length of the windows the capacity rung's
// completions are counted in.
const capWindow = 500 * time.Millisecond

// capThroughput is the capacity rung's throughput in completions per
// second, rescaled to the reference machine's speed, and as measured.
// Each is the median over the rung's windows: a host stall then costs
// one window's count, not a share of every window's. A window's count
// is rescaled by the calibration kernel timed around its segment.
func (g *ladderRun) capThroughput(finished []time.Time) (rescaled, raw float64) {
	var scaled, measured []float64
	for s, seg := range g.capSegs {
		rates := windowRates(finished, seg.start.Add(capRamp), seg.stop)
		sp := calibAllRefSeconds / ((g.capCal[s] + g.capCal[s+1]) / 2)
		g.capSegRaw = append(g.capSegRaw, median(rates))
		for _, r := range rates {
			measured = append(measured, r)
			scaled = append(scaled, r/sp)
		}
	}
	return median(scaled), median(measured)
}

// windowRates counts the finish times in each whole capWindow from
// from to to and returns the counts per second. When the span holds no
// whole window, it returns the rate over the span.
func windowRates(finished []time.Time, from, to time.Time) []float64 {
	n := int(to.Sub(from) / capWindow)
	if n < 1 {
		span := to.Sub(from).Seconds()
		if span <= 0 {
			return nil
		}
		c := 0
		for _, f := range finished {
			if !f.Before(from) && f.Before(to) {
				c++
			}
		}
		return []float64{float64(c) / span}
	}
	rates := make([]float64, n)
	for _, f := range finished {
		if k := int(f.Sub(from) / capWindow); !f.Before(from) && k < n {
			rates[k] += 1 / capWindow.Seconds()
		}
	}
	return rates
}

// jobTimes returns a time in ms of every job that ran (not cache hits)
// in the given rungs and that keep accepts: its run time (StartedAt to
// FinishedAt) when run is set, else its latency (due time to
// FinishedAt). With factor set, each is multiplied by its rung's factor.
func (lo *ladderOut) jobTimes(keep func(a *arrival) bool, run bool, factor map[int]float64, rungs ...int) []float64 {
	var out []float64
	for i := 0; i < lo.g.sent; i++ {
		a, o := &lo.g.sched[i], &lo.g.obs[i]
		if !keep(a) || lo.bad[i] != "" || o.final.StartedAt == nil || !inRungs(a.rung, rungs) {
			continue
		}
		from := lo.g.start.Add(a.at)
		if run {
			from = *o.final.StartedAt
		}
		v := ms(o.final.FinishedAt.Sub(from))
		if factor != nil {
			v *= factor[a.rung]
		}
		out = append(out, v)
	}
	return out
}

// ofKind keeps the jobs of one kind, and of one remedy technique when
// tech is set.
func ofKind(kind, tech string) func(a *arrival) bool {
	return func(a *arrival) bool { return a.kind == kind && (tech == "" || a.req.Technique == tech) }
}

func inRungs(r int, rungs []int) bool {
	if len(rungs) == 0 {
		return true
	}
	for _, x := range rungs {
		if x == r {
			return true
		}
	}
	return false
}

// serveLayers derives the serve, durable and generator layer metrics
// of a traced ladder.
func serveLayers(rep *report, lo *ladderOut, recoverMS float64) {
	g := lo.g
	levels := map[string]float64{}
	for _, ri := range []int{rungLow, rungMid, rungHigh} {
		name := ladder[ri].name
		rep.layer["serve.job_p50_ms."+name] = lo.rungs[ri].P50MS
		rep.layer["serve.job_p99_ms."+name] = lo.rungs[ri].TailMS
		levels["serve.job_p99_ms."+name] = lo.rungs[ri].TailLevel
	}
	// The client and queue metrics cover the rungs that met the limits:
	// above them the generator holds sends back on purpose, and its
	// connections and the queues are saturated by design.
	top := max(lo.maxRung, rungLow)
	var submit, upload, wait, lag []float64
	polls, jobs, refused := 0, 0, 0
	repeats, hits := 0, 0
	lags := g.lags()
	for i := 0; i < g.sent; i++ {
		a, o := &g.sched[i], &g.obs[i]
		if o.refused {
			refused++
		}
		if a.rung < rungLow || a.rung > top {
			continue
		}
		lag = append(lag, lags[i])
		if a.kind == "upload" {
			if o.err == "" {
				upload = append(upload, o.uploadMS)
			}
			continue
		}
		if !o.submitted {
			continue
		}
		submit = append(submit, o.submitMS)
		polls += o.polls
		jobs++
		st := o.final
		if st.StartedAt != nil {
			wait = append(wait, ms(st.StartedAt.Sub(st.EnqueuedAt)))
		}
		if a.orig >= 0 && lo.bad[i] == "" {
			repeats++
			if st.StartedAt == nil {
				hits++
			}
		}
	}
	put := func(name string, vals []float64) {
		v, lvl := tail(vals)
		rep.layer[name] = v
		levels[name] = lvl
	}
	rep.layer["serve.submit_ms.p50"] = median(submit)
	put("serve.submit_ms.p99", submit)
	put("serve.upload_ms.p99", upload)
	rep.layer["serve.queue_wait_ms.p50"] = median(wait)
	put("serve.queue_wait_ms.p99", wait)
	var measured []int
	for r := rungLow; r <= top; r++ {
		measured = append(measured, r)
	}
	for _, kind := range []string{"identify", "train", "audit", "remedy"} {
		rep.layer["serve.run_ms."+kind] = median(lo.jobTimes(ofKind(kind, ""), true, nil, measured...))
	}
	rep.layer["serve.refused"] = float64(refused)
	if repeats > 0 {
		rep.layer["serve.cache_hit_ratio"] = float64(hits) / float64(repeats)
	}
	rep.layer["serve.tenant_share_dev"] = tenantShareDev(lo)
	rep.layer["durable.appends_per_job"] = lo.appends
	rep.layer["durable.bytes_per_job"] = lo.bytes
	rep.layer["durable.recover_ms"] = recoverMS
	put("gen.lag_p99_ms", lag)
	if jobs > 0 {
		rep.layer["gen.polls_per_job"] = float64(polls) / float64(jobs)
	}
	rep.notes["percentile_levels"] = levels
}

// tenantShareDev is |observed share of team-a − ¾| among the jobs done
// in the highest rung that met the limits (the low rung when none did).
func tenantShareDev(lo *ladderOut) float64 {
	rung := lo.maxRung
	if rung < 0 {
		rung = rungLow
	}
	var a, all float64
	for i := 0; i < lo.g.sent; i++ {
		if lo.g.sched[i].rung != rung || lo.bad[i] != "" || lo.g.sched[i].kind == "upload" {
			continue
		}
		all++
		if lo.g.sched[i].tenant == 0 {
			a++
		}
	}
	if all == 0 {
		return 0
	}
	d := a/all - shareTenantA
	if d < 0 {
		d = -d
	}
	return d
}

// lags is how late the generator sent each operation: the time from
// its due time to the start of its request, in ms.
func (g *ladderRun) lags() []float64 {
	out := make([]float64, 0, g.sent)
	for i := 0; i < g.sent; i++ {
		out = append(out, ms(g.obs[i].sent.Sub(g.start.Add(g.sched[i].at))))
	}
	return out
}

// jobRows lists every finished job as [rung, kind, cache hit (0/1),
// latency ms, run ms, queue wait ms] for the run's artifact.
func (lo *ladderOut) jobRows() [][]any {
	var rows [][]any
	g := lo.g
	for i := 0; i < g.sent; i++ {
		a, o := &g.sched[i], &g.obs[i]
		if lo.bad[i] != "" || a.kind == "upload" {
			continue
		}
		st := o.final
		lat := ms(st.FinishedAt.Sub(g.start.Add(a.at)))
		if st.StartedAt == nil {
			rows = append(rows, []any{a.rung, a.kind, 1, lat, 0.0, 0.0})
			continue
		}
		rows = append(rows, []any{a.rung, a.kind, 0, lat, ms(st.FinishedAt.Sub(*st.StartedAt)), ms(st.StartedAt.Sub(st.EnqueuedAt))})
	}
	return rows
}
