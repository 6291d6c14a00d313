package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

const (
	compasTarget = "two_year_recid"
	// latencyLimit is the tail-latency limit a rung must meet.
	latencyLimit = 250 * time.Millisecond
	// paceGrace is how long after its rung ends a rung's last job may
	// finish and still count as keeping pace.
	paceGrace    = time.Second
	pollInterval = 40 * time.Millisecond
	// queueDepth is remedyd's default per-tenant queue depth. The
	// generator holds a tenant's next job while the tenant has this many
	// jobs outstanding, so its queue can never overflow and the server
	// never has to refuse a job. The hold counts in the job's latency.
	queueDepth = 16
	drainLimit = 60 * time.Second
)

var compasProtected = []string{"age", "race", "sex"}

var tenants = [2]string{"team-a", "team-b"}

// remedydConfig is remedyd's default configuration (cmd/remedyd flag
// defaults).
func remedydConfig() serve.Config {
	return serve.Config{
		MaxDatasets:      16,
		MaxUploadRows:    2_000_000,
		MaxUploadBytes:   256 << 20,
		Workers:          4,
		QueueDepth:       queueDepth,
		CacheEntries:     128,
		JobTimeout:       5 * time.Minute,
		MaxAttempts:      3,
		SlowJobThreshold: 30 * time.Second,
		Logger:           obs.NewLogger(os.Stderr, obs.LevelWarn),
	}
}

// serveEnv is one durable server on a loopback listener, with one
// client per tenant sharing a transport of at most nproc connections.
type serveEnv struct {
	dir     string
	store   *durable.Store
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	tr      *http.Transport
	clients [2]*serve.Client
	dsIDs   []string
}

// startServe opens a fresh data directory (fsync per journal append),
// starts the server and uploads the COMPAS datasets.
func startServe(ctx context.Context, dir string, csvs [][]byte) (*serveEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := durable.Open(ctx, dir, true)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewDurable(ctx, remedydConfig(), store)
	if err != nil {
		store.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx)
		store.Close()
		return nil, err
	}
	e := &serveEnv{dir: dir, store: store, srv: srv, served: make(chan error, 1)}
	e.hs = &http.Server{Handler: srv.Handler()}
	go func() { e.served <- e.hs.Serve(ln) }()
	n := runtime.NumCPU()
	e.tr = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	hc := &http.Client{Transport: e.tr}
	for i := range e.clients {
		c := serve.NewClient("http://" + ln.Addr().String())
		c.HTTP = hc
		c.Tenant = tenants[i]
		e.clients[i] = c
	}
	for i, csv := range csvs {
		info, err := e.clients[0].UploadDataset(ctx, bytes.NewReader(csv), fmt.Sprintf("compas-%d", i), compasTarget, compasProtected)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("upload compas: %w", err), e.close(ctx))
		}
		e.dsIDs = append(e.dsIDs, info.ID)
	}
	return e, nil
}

// close drains the server, stops the listener and closes the store.
func (e *serveEnv) close(ctx context.Context) error {
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	derr := e.srv.Shutdown(sctx)
	herr := e.hs.Shutdown(sctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		herr = errors.Join(herr, serr)
	}
	e.tr.CloseIdleConnections()
	return errors.Join(derr, herr, e.store.Close())
}

// metricsSnapshot reads the server's /metrics counters.
func (e *serveEnv) metricsSnapshot(ctx context.Context) (obs.Snapshot, error) {
	var s obs.Snapshot
	err := e.clients[0].DoJSON(ctx, http.MethodGet, "/metrics", nil, &s)
	return s, err
}

func compasCSV(n int, seed int64) ([]byte, error) {
	var b bytes.Buffer
	if err := synth.CompasN(n, seed).WriteCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// identifyReference computes, in process, the result every identify
// variant must return for the uploaded bytes.
func identifyReference(ctx context.Context, csv []byte) ([]serve.IdentifyResult, error) {
	d, err := dataset.ReadCSV(bytes.NewReader(csv), compasTarget, compasProtected)
	if err != nil {
		return nil, err
	}
	var out []serve.IdentifyResult
	for _, v := range identifyVariants {
		cfg := core.Config{TauC: v.TauC, T: v.T, MinSize: 30, Scope: core.Lattice}
		res, err := core.IdentifyOptimizedCtx(ctx, d, cfg)
		if err != nil {
			return nil, err
		}
		ref := serve.IdentifyResult{
			TauC: cfg.TauC, T: cfg.T, MinSize: cfg.MinSize, Scope: cfg.Scope.String(),
			Explored: res.Explored, Pruned: res.Pruned, Regions: make([]serve.RegionJSON, 0, len(res.Regions)),
		}
		for _, r := range res.Regions {
			ref.Regions = append(ref.Regions, serve.RegionJSON{
				Pattern: res.Space.String(r.Pattern), N: r.Counts.N, Pos: r.Counts.Pos, Neg: r.Counts.Neg(),
				Ratio: r.Ratio, NeighborRatio: r.NeighborRatio, Gap: r.Gap(),
			})
		}
		out = append(out, ref)
	}
	return out, nil
}

// opObs is what the generator observed of one arrival.
type opObs struct {
	sent      time.Time
	submitted bool
	refused   bool
	err       string
	id        string
	final     serve.JobStatus
	polls     int
	submitMS  float64
	uploadMS  float64
	// result is the raw result payload, fetched after the ladder.
	result json.RawMessage
}

// ladderRun drives one server through the rate ladder.
type ladderRun struct {
	env   *serveEnv
	sched []arrival
	tr    *tracer
	start time.Time
	obs   []opObs
	// outstanding counts each tenant's jobs submitted (or being
	// submitted) and not yet seen finished.
	outstanding [2]atomic.Int64
	// memPeakMB is the peak RSS up to the end of the high rung: how many
	// jobs the capacity rung gets through varies with the host.
	memPeakMB float64
	sent      int // arrivals sent
	// pause, when set, runs before the mid and before the high rung,
	// once every job sent before it has finished; the rest of the
	// schedule moves back by the time it takes.
	pause func(ctx context.Context, rung int) error
	// capFor is how long the closed capacity rung lasts, split into
	// capSegments segments. capCal holds the all-CPU calibration's time
	// before the first segment and after each.
	capFor  time.Duration
	capSegs []capSeg
	capCal  []float64
	// capSegRaw is each segment's median rate as measured.
	capSegRaw []float64
}

// capSegments is how many segments the capacity rung is split into.
// The server drains between two segments and the calibration kernel is
// timed on the idle machine, so each segment's throughput is rescaled
// by the host's speed just before and just after it.
const capSegments = 4

// capSeg is one segment of the capacity rung: when it started and when
// its last arrival was sent.
type capSeg struct{ start, stop time.Time }

// drive sends every arrival of the open rungs at its due time (sends
// never wait for earlier jobs) and those of the closed capacity rung as
// fast as the tenants' queues admit them, and returns once every sent
// operation has finished or the drain limit passed.
func (g *ladderRun) drive(ctx context.Context) error {
	g.obs = make([]opObs, len(g.sched))

	dctx, cancel := context.WithTimeout(ctx, time.Duration(float64(time.Second)*ladderSeconds(g.sched))+drainLimit)
	defer cancel()
	var wg sync.WaitGroup
	g.start = time.Now().Add(20 * time.Millisecond)
	rung := rungWarm
	for i := range g.sched {
		a := &g.sched[i]
		if a.rung != rung && (a.rung == rungMid || a.rung == rungHigh) && g.pause != nil {
			wg.Wait()
			if err := g.pause(ctx, a.rung); err != nil {
				return err
			}
			if shift := time.Since(g.start.Add(a.at)) + 20*time.Millisecond; shift > 0 {
				for j := i; j < len(g.sched); j++ {
					g.sched[j].at += shift
				}
			}
		}
		rung = a.rung
		if a.rung == rungCap {
			if !g.capAdmit(&wg, a) {
				break
			}
			// A closed-loop arrival is due when it is sent.
			a.at = time.Since(g.start)
		}
		due := g.start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		for a.kind != "upload" && g.outstanding[a.tenant].Load() >= queueDepth {
			time.Sleep(time.Millisecond)
		}
		if a.rung > rungHigh && g.memPeakMB == 0 {
			g.memPeakMB = peakRSSMB()
		}
		g.sent++
		if a.rung == rungCap {
			g.capSegs[len(g.capSegs)-1].stop = time.Now()
		}
		if a.kind != "upload" {
			g.outstanding[a.tenant].Add(1)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			g.fire(dctx, i, due)
		}(i, due)
	}
	if g.memPeakMB == 0 {
		g.memPeakMB = peakRSSMB()
	}
	if n := len(g.capSegs); n > 0 && len(g.capCal) == n {
		// The arrivals ran out before the last segment ended.
		wg.Wait()
		g.capCal = append(g.capCal, calibrateAll())
	}
	wg.Wait()
	return dctx.Err()
}

// capAdmit holds an arrival of the capacity rung until its tenant's
// queue admits it. When the current segment ends first, or the rung
// starts, it lets the server drain, times the calibration kernel and
// starts the next segment. It reports false once the last segment has
// ended.
func (g *ladderRun) capAdmit(wg *sync.WaitGroup, a *arrival) bool {
	for {
		if n := len(g.capSegs); n > 0 {
			end := g.capSegs[n-1].start.Add(g.capFor / capSegments)
			for a.kind != "upload" && g.outstanding[a.tenant].Load() >= queueDepth && time.Now().Before(end) {
				time.Sleep(time.Millisecond)
			}
			if time.Now().Before(end) {
				return true
			}
		}
		wg.Wait()
		g.capCal = append(g.capCal, calibrateAll())
		if len(g.capSegs) == capSegments {
			return false
		}
		g.capSegs = append(g.capSegs, capSeg{start: time.Now()})
	}
}

func ladderSeconds(sched []arrival) float64 {
	if len(sched) == 0 {
		return 0
	}
	return sched[len(sched)-1].at.Seconds()
}

// fire performs one arrival: an upload, or a job submission polled to
// its terminal state.
func (g *ladderRun) fire(ctx context.Context, i int, due time.Time) {
	a, o := &g.sched[i], &g.obs[i]
	o.sent = time.Now()
	c := g.env.clients[a.tenant]
	jctx, root := g.tr.root(ctx, "op."+a.kind, int64(i+1))
	root.startAt(due)
	g.tr.interval(jctx, "gen.lag", due, o.sent)
	if a.kind == "upload" {
		csv, err := compasCSV(uploadRows, a.uploadSeed)
		if err != nil {
			o.err = err.Error()
			root.end()
			return
		}
		_, s := g.tr.child(jctx, "serve.upload")
		t := time.Now()
		info, err := c.UploadDataset(ctx, bytes.NewReader(csv), fmt.Sprintf("upload-%d", i), compasTarget, compasProtected)
		o.uploadMS = ms(time.Since(t))
		s.end()
		root.end()
		switch {
		case err != nil:
			o.refused = serve.StatusOf(err) == http.StatusTooManyRequests
			o.err = err.Error()
		case info.Rows != uploadRows:
			o.err = fmt.Sprintf("upload registered %d rows, want %d", info.Rows, uploadRows)
		}
		return
	}
	req := a.req
	req.DatasetID = g.env.dsIDs[a.dataset]
	_, s := g.tr.child(jctx, "serve.submit")
	t := time.Now()
	st, err := c.SubmitJob(ctx, req)
	o.submitMS = ms(time.Since(t))
	s.end()
	defer g.outstanding[a.tenant].Add(-1)
	if err != nil {
		o.refused = serve.StatusOf(err) == http.StatusTooManyRequests
		o.err = err.Error()
		root.end()
		return
	}
	o.submitted, o.id = true, st.ID
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			o.err = "not finished: " + ctx.Err().Error()
			root.end()
			return
		case <-time.After(pollInterval):
		}
		_, s := g.tr.child(jctx, "serve.poll")
		st, err = c.Job(ctx, o.id)
		s.end()
		o.polls++
		if err != nil {
			o.err = err.Error()
			root.end()
			return
		}
	}
	o.final = st
	if st.StartedAt != nil && st.FinishedAt != nil {
		g.tr.interval(jctx, "serve.queue", st.EnqueuedAt, *st.StartedAt)
		g.tr.interval(jctx, "serve.run", *st.StartedAt, *st.FinishedAt)
	}
	if st.FinishedAt != nil {
		root.endAt(*st.FinishedAt)
	} else {
		root.end()
	}
}

// verify fetches every finished job's result and checks it: identify
// results against the in-process reference, repeats byte for byte
// against their originals, and the job table for lost or duplicated
// jobs. It returns the failure reason of each arrival ("" = ok).
func (g *ladderRun) verify(ctx context.Context, refs [][]serve.IdentifyResult) ([]string, error) {
	bad := make([]string, len(g.sched))
	ids := map[string]int{}
	for i := 0; i < g.sent; i++ {
		a, o := &g.sched[i], &g.obs[i]
		switch {
		case o.err != "":
			bad[i] = o.err
			continue
		case a.kind == "upload":
			continue
		case o.final.State != serve.StateDone:
			bad[i] = fmt.Sprintf("job %s ended %s: %s", o.id, o.final.State, o.final.Error)
			continue
		}
		if prev, dup := ids[o.id]; dup {
			bad[i] = fmt.Sprintf("job id %s returned for arrivals %d and %d", o.id, prev, i)
			continue
		}
		ids[o.id] = i
		if err := g.env.clients[a.tenant].Result(ctx, o.id, &o.result); err != nil {
			bad[i] = "result: " + err.Error()
			continue
		}
		bad[i] = checkResult(a, o.result, refs)
	}
	for i := 0; i < g.sent; i++ {
		a := &g.sched[i]
		if a.orig < 0 || bad[i] != "" || bad[a.orig] != "" {
			continue
		}
		if !bytes.Equal(g.obs[i].result, g.obs[a.orig].result) {
			bad[i] = fmt.Sprintf("repeat of arrival %d returned different bytes", a.orig)
		}
	}
	var listed []serve.JobStatus
	if err := g.env.clients[0].DoJSON(ctx, http.MethodGet, "/jobs", nil, &listed); err != nil {
		return nil, fmt.Errorf("list jobs: %w", err)
	}
	seen := map[string]bool{}
	for _, st := range listed {
		if seen[st.ID] {
			return nil, fmt.Errorf("job %s listed twice", st.ID)
		}
		seen[st.ID] = true
	}
	for id, i := range ids {
		if !seen[id] {
			bad[i] = fmt.Sprintf("job %s lost from the job table", id)
		}
	}
	// Every listed job but the set-up's must be one the generator
	// submitted.
	submitted := 0
	for i := 0; i < g.sent; i++ {
		if g.obs[i].submitted {
			submitted++
		}
	}
	if len(listed) != submitted {
		return nil, fmt.Errorf("job table holds %d jobs, generator submitted %d", len(listed), submitted)
	}
	return bad, nil
}

func checkResult(a *arrival, raw json.RawMessage, refs [][]serve.IdentifyResult) string {
	switch a.kind {
	case "identify":
		var got serve.IdentifyResult
		if err := json.Unmarshal(raw, &got); err != nil {
			return "identify result: " + err.Error()
		}
		if !reflect.DeepEqual(got, refs[a.dataset][a.variant]) {
			return fmt.Sprintf("identify variant %d on dataset %d differs from the reference", a.variant, a.dataset)
		}
	case "remedy":
		var got serve.RemedyResult
		if err := json.Unmarshal(raw, &got); err != nil {
			return "remedy result: " + err.Error()
		}
		if got.Technique != a.req.Technique || got.ResultDatasetID == "" || got.RowsAfter != got.RowsBefore+got.Added-got.Removed {
			return fmt.Sprintf("remedy result inconsistent: %+v", got)
		}
	case "train":
		var got serve.TrainResult
		if err := json.Unmarshal(raw, &got); err != nil || got.TestRows == 0 || got.Model != "DT" {
			return fmt.Sprintf("train result malformed (%v)", err)
		}
	case "audit":
		var got serve.AuditResult
		if err := json.Unmarshal(raw, &got); err != nil || got.TestRows == 0 || got.Stat != a.req.Stat {
			return fmt.Sprintf("audit result malformed (%v)", err)
		}
	}
	return ""
}
