package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// recordIdentifyMetrics folds one finished identification's work
// counters into the context's metrics registry (a no-op without one):
// identify.nodes_visited / nodes_pruned are the regions examined and
// size-filtered, regions_flagged the IBS members found, neighbor_ops
// the aggregation count the optimized algorithm reduces.
func recordIdentifyMetrics(ctx context.Context, res *Result) {
	m := obs.MetricsFrom(ctx)
	if m == nil {
		return
	}
	m.Counter("identify.nodes_visited").Add(int64(res.Explored))
	m.Counter("identify.nodes_pruned").Add(int64(res.Pruned))
	m.Counter("identify.regions_flagged").Add(int64(len(res.Regions)))
	m.Counter("identify.neighbor_ops").Add(int64(res.NeighborOps))
}

// finishIdentifySpan stamps the result attributes on an identification
// span and ends it.
func finishIdentifySpan(sp *obs.Span, res *Result) {
	if sp == nil {
		return
	}
	sp.SetInt("explored", int64(res.Explored))
	sp.SetInt("pruned", int64(res.Pruned))
	sp.SetInt("regions", int64(len(res.Regions)))
	sp.End()
}

// ctxCheckStride bounds how many regions a traversal examines between
// cooperative cancellation checks. Small enough that a cancelled scan
// returns promptly (well under the 100ms budget the tests assert) and
// large enough that ctx.Err polling stays off the per-region profile.
const ctxCheckStride = 256

// canceler amortizes ctx.Err polling across a traversal: the first
// cancelled() call polls ctx (so an already-cancelled context aborts
// before any work, however small the space), then once per stride of
// calls; after a poll reports cancellation the traversal unwinds and
// the recorded error propagates. The context is threaded into each
// cancelled(ctx) call rather than stored, keeping cancellation
// attached to the call tree (ctxfirst contract).
type canceler struct {
	count int
	err   error
}

func (c *canceler) cancelled(ctx context.Context) bool {
	if c.err != nil {
		return true
	}
	if c.count%ctxCheckStride != 0 {
		c.count++
		return false
	}
	c.count++
	c.err = ctx.Err()
	return c.err != nil
}

// WorkerPanicError reports a panic recovered inside a node pool worker
// (an identification scan or a Preload count): the offending hierarchy
// node, the panic value, and the worker's stack. IdentifyOptimizedCtx
// and PreloadCtx return it instead of letting the panic take down the
// process.
type WorkerPanicError struct {
	Mask  uint32 // deterministic-slot mask of the node being scanned
	Value any    // recovered panic value
	Stack []byte // worker stack at the point of the panic
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("core: identify worker panicked on node %#x: %v", e.Mask, e.Value)
}

// IdentifyNaive runs the naïve IBS identification of §III-A: for every
// candidate region it enumerates all neighbors within distance T —
// (c-1)·d·T regions — and computes each neighbor's counts separately by
// scanning the dataset, with no result reuse across regions. This is
// the repeated work the optimized algorithm eliminates (§III-B): the
// hierarchy construction and size filter (Algorithm 1 lines 1-2) are
// shared, but neighbor aggregates are recomputed per region.
func IdentifyNaive(d *dataset.Dataset, cfg Config) (*Result, error) {
	return IdentifyNaiveCtx(context.Background(), d, cfg)
}

// IdentifyNaiveCtx is IdentifyNaive under a context: the traversal
// checks ctx cooperatively between regions and returns the partial
// Result accumulated so far alongside ctx.Err() when cancelled.
func IdentifyNaiveCtx(ctx context.Context, d *dataset.Dataset, cfg Config) (*Result, error) {
	h, err := NewHierarchy(d)
	if err != nil {
		return nil, err
	}
	return h.IdentifyNaiveCtx(ctx, cfg)
}

// IdentifyNaive is the method form operating on an existing hierarchy,
// reusing its memoized node tables.
func (h *Hierarchy) IdentifyNaive(cfg Config) (*Result, error) {
	return h.IdentifyNaiveCtx(context.Background(), cfg)
}

// IdentifyNaiveCtx is the context-aware method form. On cancellation it
// returns the regions identified so far together with ctx.Err().
func (h *Hierarchy) IdentifyNaiveCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(h.Space); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "core.identify.naive")
	sp.SetStr("scope", cfg.Scope.String())
	res := &Result{Space: h.Space, Config: cfg}
	defer finishIdentifySpan(sp, res)
	defer recordIdentifyMetrics(ctx, res)
	k := cfg.minSize()
	c := &canceler{}
	for _, mask := range h.masksForScope(cfg.Scope) {
		node := h.Node(mask)
		h.Space.EnumerateNodeUntil(mask, func(p pattern.Pattern) bool {
			if c.cancelled(ctx) {
				return false
			}
			rc := node[h.Space.Key(p)]
			if rc.N <= k {
				res.Pruned++
				return true
			}
			res.Explored++
			var nc pattern.Counts
			visit := func(q pattern.Pattern) {
				// Count the neighbor from scratch — the naïve
				// algorithm's separate, repeated computation.
				cnt := h.Space.CountPattern(h.Data, q)
				nc.N += cnt.N
				nc.Pos += cnt.Pos
				res.NeighborOps++
			}
			switch {
			case cfg.EuclideanT > 0:
				h.Space.NeighborsEuclidean(p, cfg.EuclideanT, visit)
			case cfg.OrderedDistance:
				h.Space.NeighborsOrdered(p, visit)
			default:
				h.Space.Neighbors(p, cfg.T, visit)
			}
			appendIfBiased(res, p, rc, nc, cfg.TauC)
			return true
		})
		if c.err != nil {
			break
		}
	}
	h.sortRegions(res.Regions)
	return res, c.err
}

// IdentifyOptimized runs Algorithm 1 (§III-B): neighborhood counts are
// derived from the d·T dominating regions T levels up, whose counts are
// computed once per node and shared across the node's regions. It is
// exact for T = 1 (the identity Σ_{R_d} counts − |R_d|·counts(r) equals
// the direct neighbor sum) and for T ≥ d (where the neighboring region
// is all siblings: dataset totals minus the region). For intermediate T
// the paper's formula weights nearer neighbors more heavily; the paper
// evaluates only T = 1 and T = |X|.
func IdentifyOptimized(d *dataset.Dataset, cfg Config) (*Result, error) {
	return IdentifyOptimizedCtx(context.Background(), d, cfg)
}

// IdentifyOptimizedCtx is IdentifyOptimized under a context. The
// traversal checks ctx cooperatively; on cancellation the partial
// Result identified so far is returned alongside ctx.Err(). A panic
// inside a node scan is recovered and surfaces as a *WorkerPanicError
// instead of crashing the process.
func IdentifyOptimizedCtx(ctx context.Context, d *dataset.Dataset, cfg Config) (*Result, error) {
	h, err := NewHierarchy(d)
	if err != nil {
		return nil, err
	}
	return h.IdentifyOptimizedCtx(ctx, cfg)
}

// IdentifyOptimized is the method form operating on an existing
// hierarchy.
func (h *Hierarchy) IdentifyOptimized(cfg Config) (*Result, error) {
	return h.IdentifyOptimizedCtx(context.Background(), cfg)
}

// IdentifyOptimizedCtx is the context-aware method form; see
// IdentifyOptimizedCtx (package form) for the cancellation and
// panic-recovery contract.
//
// The traversal walks the lattice bottom-up through runNodes: inline
// on the calling goroutine when cfg.Workers <= 1, otherwise (after
// Preload) on a bounded pool with no barrier between levels, so the
// leaf node keeps overlapping with the upper levels. Either way nodes
// merge into the Result on the calling goroutine in traversal order,
// and when a level's last node has merged its span closes, the
// identify.level_ms histogram observes it and OnLevel checkpoints it.
func (h *Hierarchy) IdentifyOptimizedCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(h.Space); err != nil {
		return nil, err
	}
	if cfg.OrderedDistance || cfg.EuclideanT > 0 {
		// The dominating-region identity assumes the basic
		// unit-distance setting; fall back to the naïve traversal.
		return h.IdentifyNaiveCtx(ctx, cfg)
	}
	ctx, sp := obs.StartSpan(ctx, "core.identify.optimized")
	sp.SetStr("scope", cfg.Scope.String())
	sp.SetInt("T", int64(cfg.T))
	sp.SetInt("workers", int64(cfg.Workers))
	res := &Result{Space: h.Space, Config: cfg}
	defer finishIdentifySpan(sp, res)
	defer recordIdentifyMetrics(ctx, res)

	// Levels checkpointed by a previous attempt fold in from their
	// snapshots and their masks are skipped; the rest are scanned.
	resume := cfg.resumeByLevel()
	var masks []uint32
	for _, m := range h.masksForScope(cfg.Scope) {
		snap, ok := resume[levelOf(m)]
		if !ok {
			masks = append(masks, m)
			continue
		}
		res.merge(&Result{Regions: snap.Regions, Explored: snap.Explored, NeighborOps: snap.NeighborOps, Pruned: snap.Pruned})
		// Emptied, the entry still skips the level's remaining masks.
		resume[levelOf(m)] = LevelSnapshot{}
	}
	if cfg.Workers > 1 && len(masks) > 0 {
		// The pool's scans share the node tables, so they must all exist
		// (and only be read) before the first scan starts.
		if err := h.PreloadCtx(ctx, cfg.Workers); err != nil {
			h.sortRegions(res.Regions)
			return res, err
		}
	}

	// A level opens when its first node is dispatched and closes when
	// its last node merges; in the pool several levels can be open at
	// once.
	type level struct {
		ctx   context.Context //lint:allow ctxfirst derived from the traversal's context for one level's nodes and dropped when the level closes, before the call returns
		span  *obs.Span
		start time.Time
	}
	levels := make([]*level, h.Space.Dim()+1)
	levelHist := obs.MetricsFrom(ctx).Histogram("identify.level_ms", obs.DefaultDurationBucketsMS)
	closeLevel := func(lv int) {
		l := levels[lv]
		l.span.End()
		levelHist.Observe(float64(time.Since(l.start).Microseconds()) / 1000)
		levels[lv] = nil
	}
	// Nodes merge in traversal order, so when a level closes, everything
	// res gained since the previous one closed is that level's
	// checkpoint. base holds res as of that close (only its lengths and
	// counters are read).
	base := *res
	// Pool goroutines scan into private shards; inline scans write
	// straight into res, which is where their merge would put them.
	shards := make([]*Result, len(masks))

	start := func(ctx context.Context, i int) context.Context {
		lv := levelOf(masks[i])
		if levels[lv] == nil {
			lctx, lsp := obs.StartSpan(ctx, "core.identify.level")
			lsp.SetInt("level", int64(lv))
			//lint:allow determinism level timing feeds the trace histogram only; pipeline output is unaffected
			levels[lv] = &level{ctx: lctx, span: lsp, start: time.Now()}
		}
		return levels[lv].ctx
	}
	scan := func(ctx context.Context, i int) error {
		// Each node gets its own span under its level, so the trace
		// shows the fan-out and any straggler nodes. The deferred End
		// runs during panic unwinding, so crashed shards stay visible.
		ctx, ssp := obs.StartSpan(ctx, "core.identify.shard")
		ssp.SetInt("node", int64(masks[i]))
		defer ssp.End()
		shard := res
		if cfg.Workers > 1 {
			shard = &Result{}
			shards[i] = shard
		}
		found := len(shard.Regions)
		c := &canceler{}
		h.scanNodeOptimized(ctx, masks[i], cfg, shard, c)
		ssp.SetInt("regions", int64(len(shard.Regions)-found))
		return c.err
	}
	mergeNode := func(i int) error {
		if shards[i] != nil {
			res.merge(shards[i])
			shards[i] = nil
		}
		lv := levelOf(masks[i])
		if i+1 < len(masks) && levelOf(masks[i+1]) == lv {
			return nil
		}
		closeLevel(lv)
		snap := LevelSnapshot{
			Level:       lv,
			Regions:     res.Regions[len(base.Regions):],
			Explored:    res.Explored - base.Explored,
			NeighborOps: res.NeighborOps - base.NeighborOps,
			Pruned:      res.Pruned - base.Pruned,
		}
		base = *res
		if cfg.OnLevel == nil {
			return nil
		}
		snap.Regions = append([]Region(nil), snap.Regions...)
		return cfg.OnLevel(ctx, snap)
	}
	err := runNodes(ctx, cfg.Workers, faults.IdentifyWorker, masks, start, scan, mergeNode)
	// After a failure, nodes scanned (wholly or in part) but never
	// merged still count toward the partial Result, and the open levels
	// close without a checkpoint.
	for _, shard := range shards {
		if shard != nil {
			res.merge(shard)
		}
	}
	for lv, l := range levels {
		if l != nil {
			closeLevel(lv)
		}
	}
	if lg := obs.LoggerFrom(ctx); lg.On(obs.LevelDebug) {
		lg.Scope("core").Debug("identify done",
			"explored", res.Explored, "pruned", res.Pruned, "regions", len(res.Regions))
	}
	h.sortRegions(res.Regions)
	return res, err
}

// merge folds o's regions and work counters into res.
func (res *Result) merge(o *Result) {
	res.Regions = append(res.Regions, o.Regions...)
	res.Explored += o.Explored
	res.NeighborOps += o.NeighborOps
	res.Pruned += o.Pruned
}

// runNodes is the node pool every multi-node pass over the hierarchy
// runs through (Preload's counting and the optimized traversal's
// scans); it is the only place in the package that starts goroutines.
// It calls work(ctx, i) for each masks[i] in index order: inline on the
// calling goroutine when workers <= 1, otherwise on at most workers
// goroutines at a time. Before each node's work it fires the fault
// point (argument: the mask), and it recovers a panic in the work into
// a *WorkerPanicError carrying the mask.
//
// start, when set, runs on the calling goroutine just before node i is
// dispatched and returns the context the node runs under. done, when
// set, runs on the calling goroutine for every node whose work returned
// nil, strictly in index order, so callers merge per-node results
// without locks and deterministically.
//
// The first failure — a panic, a fault, a work or done error — cancels
// the nodes still running, stops dispatch and is returned; a cancelled
// ctx stops dispatch and its error is returned. Every goroutine is
// joined before runNodes returns.
func runNodes(ctx context.Context, workers int, point faults.Point, masks []uint32,
	start func(ctx context.Context, i int) context.Context,
	work func(ctx context.Context, i int) error,
	done func(i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if start == nil {
		start = func(ctx context.Context, _ int) context.Context { return ctx }
	}
	if done == nil {
		done = func(int) error { return nil }
	}
	run := func(ctx context.Context, i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &WorkerPanicError{Mask: masks[i], Value: r, Stack: debug.Stack()}
			}
		}()
		if faults.Active() {
			if err := faults.FireCtx(ctx, point, masks[i]); err != nil {
				return fmt.Errorf("%s on node %#x: %w", point, masks[i], err)
			}
		}
		return work(ctx, i)
	}
	workers = max(workers, 1)
	type outcome struct {
		i   int
		err error
	}
	// Buffered for every running node, so no report ever blocks.
	finished := make(chan outcome, workers)
	ok := make([]bool, len(masks))
	var first error
	next, merged, running := 0, 0, 0
	for {
		if first == nil && next < len(masks) && running < workers && ctx.Err() == nil {
			i, nctx := next, start(ctx, next)
			next++
			running++
			if workers == 1 {
				finished <- outcome{i, run(nctx, i)}
				continue
			}
			//lint:allow goroleak runs one node's work, which polls ctx; the buffered send never blocks and the loop receives every report before returning
			go func() { finished <- outcome{i, run(nctx, i)} }()
			continue
		}
		if running == 0 {
			break
		}
		o := <-finished
		running--
		if o.err != nil {
			if first == nil {
				first = o.err
				cancel()
			}
			continue
		}
		ok[o.i] = true
		for first == nil && merged < next && ok[merged] {
			if err := done(merged); err != nil {
				first = err
				cancel()
			}
			merged++
		}
	}
	if first != nil {
		return first
	}
	if merged < len(masks) {
		return ctx.Err()
	}
	return nil
}

// scanNodeOptimized runs the optimized per-node identification (lines
// 4-12 of Algorithm 1) for one hierarchy node, appending biased regions
// to res. The scan aborts early once c reports cancellation.
func (h *Hierarchy) scanNodeOptimized(ctx context.Context, mask uint32, cfg Config, res *Result, c *canceler) {
	node := h.Node(mask)
	k := cfg.minSize()
	d := levelOf(mask)
	T := cfg.T
	if T > d {
		T = d
	}
	h.Space.EnumerateNodeUntil(mask, func(p pattern.Pattern) bool {
		if c.cancelled(ctx) {
			return false
		}
		rc := node[h.Space.Key(p)]
		if rc.N <= k {
			res.Pruned++
			return true
		}
		res.Explored++
		nc := h.neighborViaDominating(p, rc, T, res)
		appendIfBiased(res, p, rc, nc, cfg.TauC)
		return true
	})
}

// BiasedRegionsInNode identifies the biased regions of a single
// hierarchy node with the optimized algorithm — the GETBIASEDREGIONS
// step of Algorithm 2, which the remedy loop re-runs per node against
// the evolving dataset.
func (h *Hierarchy) BiasedRegionsInNode(mask uint32, cfg Config) ([]Region, error) {
	return h.BiasedRegionsInNodeCtx(context.Background(), mask, cfg)
}

// BiasedRegionsInNodeCtx is BiasedRegionsInNode under a context; on
// cancellation the regions found so far return alongside ctx.Err().
func (h *Hierarchy) BiasedRegionsInNodeCtx(ctx context.Context, mask uint32, cfg Config) ([]Region, error) {
	if err := cfg.validate(h.Space); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "core.identify.node")
	sp.SetInt("node", int64(mask))
	res := &Result{Space: h.Space, Config: cfg}
	defer finishIdentifySpan(sp, res)
	defer recordIdentifyMetrics(ctx, res)
	c := &canceler{}
	h.scanNodeOptimized(ctx, mask, cfg, res, c)
	h.sortRegions(res.Regions)
	return res.Regions, c.err
}

// MasksForScope exposes the bottom-up node traversal order of the
// given scope for callers (the remedy driver) that walk the hierarchy
// themselves.
func (h *Hierarchy) MasksForScope(s Scope) []uint32 { return h.masksForScope(s) }

// neighborViaDominating computes the neighboring-region counts of p via
// the set R_d of dominating regions T levels up (line 9-10 of
// Algorithm 1): remove T deterministic elements in every possible way,
// sum the ancestors' counts, and subtract the |R_d|-fold over-count of
// the region itself.
func (h *Hierarchy) neighborViaDominating(p pattern.Pattern, rc pattern.Counts, T int, res *Result) pattern.Counts {
	d := p.Level()
	if T >= d {
		// R_d = {level-0 root}: the neighboring region is every sibling,
		// i.e. the dataset totals minus the region.
		res.NeighborOps++
		tot := h.Totals()
		return pattern.Counts{N: tot.N - rc.N, Pos: tot.Pos - rc.Pos}
	}
	var sum pattern.Counts
	size := 0
	h.ancestorsTLevelsUp(p, T, func(q pattern.Pattern) {
		c := h.Node(q.Mask())[h.Space.Key(q)]
		sum.N += c.N
		sum.Pos += c.Pos
		size++
		res.NeighborOps++
	})
	return pattern.Counts{N: sum.N - size*rc.N, Pos: sum.Pos - size*rc.Pos}
}

// ancestorsTLevelsUp calls f for each pattern obtained from p by
// removing exactly T deterministic elements. For T = 1 this is
// Space.Parents.
func (h *Hierarchy) ancestorsTLevelsUp(p pattern.Pattern, T int, f func(pattern.Pattern)) {
	if T == 1 {
		h.Space.Parents(p, f)
		return
	}
	slots := make([]int, 0, len(p))
	for i, v := range p {
		if v != pattern.Wildcard {
			slots = append(slots, i)
		}
	}
	q := p.Clone()
	var choose func(start, remaining int)
	choose = func(start, remaining int) {
		if remaining == 0 {
			f(q)
			return
		}
		for k := start; k <= len(slots)-remaining; k++ {
			s := slots[k]
			q[s] = pattern.Wildcard
			choose(k+1, remaining-1)
			q[s] = p[s]
		}
	}
	choose(0, T)
}

// appendIfBiased applies Def. 5: the region joins the IBS when
// |ratio_r − ratio_rn| > τ_c. The −1 sentinel of Def. 3 (no negative
// instances) participates numerically, as in the paper: an all-positive
// region next to a balanced neighborhood is maximally suspicious.
func appendIfBiased(res *Result, p pattern.Pattern, rc, nc pattern.Counts, tauC float64) {
	ratio := rc.Ratio()
	nratio := nc.Ratio()
	if math.Abs(ratio-nratio) > tauC {
		res.Regions = append(res.Regions, Region{
			Pattern:        p.Clone(),
			Counts:         rc,
			Ratio:          ratio,
			NeighborCounts: nc,
			NeighborRatio:  nratio,
		})
	}
}
