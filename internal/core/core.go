// Package core implements the paper's primary contribution: the
// Implicit Biased Set (IBS). It defines the imbalance score of a region
// (Def. 3), the neighboring region under a distance threshold T
// (Def. 4), the IBS membership test (Def. 5), and Algorithm 1 — the
// bottom-up traversal of the region hierarchy that identifies every
// biased region — in both the naïve form (§III-A) and the optimized
// form (§III-B) that derives neighborhood counts from dominating
// regions with an over-counting correction.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// Scope selects which hierarchy levels the identification (and remedy)
// traverses, matching the paper's Lattice / Leaf / Top comparison
// (§V-B2).
type Scope int

const (
	// Lattice traverses every node from the leaf level up to level 1 —
	// the paper's full method.
	Lattice Scope = iota
	// Leaf considers only the leaf level (fully deterministic
	// patterns — the finest intersections).
	Leaf
	// Top considers only level 1 (one protected attribute at a time —
	// classic single-attribute group fairness).
	Top
)

func (s Scope) String() string {
	switch s {
	case Lattice:
		return "Lattice"
	case Leaf:
		return "Leaf"
	case Top:
		return "Top"
	}
	return fmt.Sprintf("Scope(%d)", int(s))
}

// ParseScope resolves a scope name (case-insensitive), the inverse of
// Scope.String.
func ParseScope(s string) (Scope, error) {
	switch strings.ToLower(s) {
	case "lattice":
		return Lattice, nil
	case "leaf":
		return Leaf, nil
	case "top":
		return Top, nil
	}
	return 0, fmt.Errorf("unknown scope %q (lattice, leaf, top)", s)
}

// Config carries the IBS identification parameters.
type Config struct {
	// TauC is the imbalance threshold τ_c of Def. 5.
	TauC float64
	// T is the distance threshold of the neighboring region (Def. 4).
	// The basic unit-distance setting is used: a neighbor differs from
	// the region in at least 1 and at most T deterministic coordinates.
	// T is clamped per-region to the region's level d.
	T int
	// MinSize is the significance threshold k: regions with |r| <= k
	// are skipped (Problem 1). Zero means the paper's default of 30.
	MinSize int
	// Scope restricts the traversal; the zero value is Lattice.
	Scope Scope
	// OrderedDistance enables the refined per-attribute distance for
	// ordered domains discussed under Def. 4 (only meaningful with
	// T=1, and only supported by the naïve algorithm).
	OrderedDistance bool
	// Workers, when above 1, parallelizes the optimized identification:
	// the node count tables are preloaded and the per-node scans run on
	// that many goroutines. At 0 or 1 every node is scanned inline on
	// the calling goroutine. The Result, the OnLevel snapshots and
	// Resume behave identically at every value.
	Workers int
	// EuclideanT, when positive, selects the fully general Def. 4
	// metric: the neighboring region is the Euclidean ball of this
	// radius under the refined per-attribute distances (natural spacing
	// for ordered attributes, unit otherwise). It overrides T and
	// OrderedDistance, and is supported by the traversal of the naïve
	// algorithm (IdentifyOptimized falls back automatically, as the
	// dominating-region identity assumes unit distances).
	EuclideanT float64
	// OnLevel, when set, is called after each hierarchy level of the
	// optimized traversal completes, with a snapshot of that level's
	// regions and work counters — the checkpoint hook long-running
	// identifications persist through so a crash resumes from the last
	// completed level. A non-nil error aborts the traversal and is
	// returned with the partial Result. It is called on the calling
	// goroutine, in level order, whatever Workers is, and is rejected
	// alongside OrderedDistance or EuclideanT, whose naïve traversal
	// does not checkpoint. Never marshaled (func); resumable state
	// lives in the snapshots it is handed.
	OnLevel func(ctx context.Context, snap LevelSnapshot) error `json:"-"`
	// Resume seeds the traversal with previously checkpointed levels:
	// their regions and counters are folded into the Result and their
	// masks are skipped, so an interrupted identification re-run with
	// the same Config and data produces a Result identical to an
	// uninterrupted run, whatever Workers either run used. Snapshots
	// for levels outside the Scope are ignored. Duplicate levels keep
	// the last snapshot (recovery journals are last-wins).
	Resume []LevelSnapshot `json:"-"`
}

// LevelSnapshot is one completed hierarchy level of an optimized
// identification: the checkpoint unit. Regions holds the IBS members
// found at that level; the counters are that level's deltas, so
// summing snapshots of all levels reproduces the full Result's
// counters.
type LevelSnapshot struct {
	Level       int      `json:"level"`
	Regions     []Region `json:"regions,omitempty"`
	Explored    int      `json:"explored"`
	NeighborOps int      `json:"neighbor_ops"`
	Pruned      int      `json:"pruned"`
}

// DefaultMinSize is the paper's rule-of-thumb region size threshold k.
const DefaultMinSize = 30

func (c Config) minSize() int {
	if c.MinSize <= 0 {
		return DefaultMinSize
	}
	return c.MinSize
}

func (c Config) validate(sp *pattern.Space) error {
	if c.TauC < 0 {
		return fmt.Errorf("core: negative imbalance threshold %v", c.TauC)
	}
	if c.T < 1 {
		return fmt.Errorf("core: distance threshold T must be >= 1, got %d", c.T)
	}
	if c.OrderedDistance && c.T != 1 {
		return fmt.Errorf("core: OrderedDistance requires T = 1")
	}
	if c.EuclideanT < 0 {
		return fmt.Errorf("core: negative Euclidean radius %v", c.EuclideanT)
	}
	if (c.OnLevel != nil || len(c.Resume) > 0) && (c.OrderedDistance || c.EuclideanT > 0) {
		return fmt.Errorf("core: level checkpoints require the optimized unit-distance traversal")
	}
	for _, snap := range c.Resume {
		if snap.Level < 1 {
			return fmt.Errorf("core: resume snapshot for invalid level %d", snap.Level)
		}
	}
	_ = sp
	return nil
}

// resumeByLevel indexes the Resume snapshots by level, last-wins.
func (c Config) resumeByLevel() map[int]LevelSnapshot {
	if len(c.Resume) == 0 {
		return nil
	}
	m := make(map[int]LevelSnapshot, len(c.Resume))
	for _, snap := range c.Resume {
		m[snap.Level] = snap
	}
	return m
}

// Region is one member of the IBS: a biased region together with the
// evidence for its membership.
type Region struct {
	Pattern pattern.Pattern
	// Counts are |r|, |r+| (and |r-| via Neg).
	Counts pattern.Counts
	// Ratio is ratio_r, the region's imbalance score.
	Ratio float64
	// NeighborCounts aggregates the neighboring region r_n.
	NeighborCounts pattern.Counts
	// NeighborRatio is ratio_rn.
	NeighborRatio float64
}

// Gap returns |ratio_r - ratio_rn|, the quantity compared against τ_c.
func (r Region) Gap() float64 { return math.Abs(r.Ratio - r.NeighborRatio) }

// Result is the Implicit Biased Set I with its identification context.
type Result struct {
	Space   *pattern.Space
	Config  Config
	Regions []Region
	// Explored is the number of candidate regions examined (size > k),
	// and NeighborOps the number of neighbor/dominating-region count
	// aggregations performed — the cost the optimized algorithm reduces.
	Explored    int
	NeighborOps int
	// Pruned counts the regions skipped by the significance filter
	// (|r| <= k) — the traversal work the size threshold saves.
	Pruned int
}

// Contains reports whether the exact pattern p is in the IBS.
func (res *Result) Contains(p pattern.Pattern) bool {
	k := res.Space.Key(p)
	for i := range res.Regions {
		if res.Space.Key(res.Regions[i].Pattern) == k {
			return true
		}
	}
	return false
}

// Region returns the IBS entry for the exact pattern p, if present.
func (res *Result) Region(p pattern.Pattern) (Region, bool) {
	k := res.Space.Key(p)
	for i := range res.Regions {
		if res.Space.Key(res.Regions[i].Pattern) == k {
			return res.Regions[i], true
		}
	}
	return Region{}, false
}

// DominatesSignificant reports whether subgroup pattern g strictly
// dominates at least one IBS region (the blue marking of Fig. 3).
func (res *Result) DominatesSignificant(g pattern.Pattern) bool {
	for i := range res.Regions {
		r := res.Regions[i].Pattern
		if !g.Equal(r) && pattern.Dominates(g, r) {
			return true
		}
	}
	return false
}

// Hierarchy is the traversal structure of Fig. 1: the space of regions
// grouped into nodes by deterministic-attribute mask, with memoized
// per-node count tables so that dominating-region counts are computed
// once and shared across all regions of a node (§III-B).
type Hierarchy struct {
	Space  *pattern.Space
	Data   *dataset.Dataset
	tables map[uint32]pattern.Table
	totals pattern.Counts
}

// NewHierarchy constructs the hierarchy over the protected attributes
// of d's schema.
func NewHierarchy(d *dataset.Dataset) (*Hierarchy, error) {
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		Space:  sp,
		Data:   d,
		tables: make(map[uint32]pattern.Table),
		totals: pattern.Totals(d),
	}, nil
}

// Preload materializes every node's count table so subsequent Node
// calls (including concurrent ones) only read. Each node's group-by is
// independent, so the masks are counted through the node pool
// directly — cheaper than merging one dense lattice table. workers <= 0
// selects GOMAXPROCS. A non-nil error means the preload did not
// complete (a counting worker panicked); the hierarchy remains usable
// and missing tables are computed lazily.
func (h *Hierarchy) Preload(workers int) error {
	return h.PreloadCtx(context.Background(), workers)
}

// PreloadCtx is Preload under a context: remaining counting shards are
// skipped once ctx is cancelled and ctx.Err() is returned. Tables that
// finished counting are retained either way, and a panic inside a
// counting worker is recovered into a *WorkerPanicError. All workers
// are joined before returning.
func (h *Hierarchy) PreloadCtx(ctx context.Context, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	all := h.Space.Masks()
	ctx, psp := obs.StartSpan(ctx, "core.preload")
	psp.SetInt("nodes", int64(len(all)))
	psp.SetInt("workers", int64(workers))
	defer psp.End()
	masks := make([]uint32, 0, len(all))
	for _, m := range all {
		if h.tables[m] == nil {
			masks = append(masks, m)
		}
	}
	tables := make([]pattern.Table, len(masks))
	err := runNodes(ctx, workers, faults.PreloadWorker, masks, nil, func(_ context.Context, i int) error {
		tables[i] = h.Space.CountNode(h.Data, masks[i])
		return nil
	}, nil)
	for i, t := range tables {
		if t != nil {
			h.tables[masks[i]] = t
		}
	}
	return err
}

// Node returns the count table of the node identified by mask,
// computing and caching it on first use.
func (h *Hierarchy) Node(mask uint32) pattern.Table {
	if t, ok := h.tables[mask]; ok {
		return t
	}
	t := h.Space.CountNode(h.Data, mask)
	h.tables[mask] = t
	return t
}

// Totals returns the level-0 counts of the dataset.
func (h *Hierarchy) Totals() pattern.Counts { return h.totals }

// Invalidate drops all memoized tables; the remedy loop calls it after
// mutating the dataset.
func (h *Hierarchy) Invalidate() {
	h.tables = make(map[uint32]pattern.Table)
	h.totals = pattern.Totals(h.Data)
}

// SetData swaps the underlying dataset (after a remedy step) and
// invalidates the caches.
func (h *Hierarchy) SetData(d *dataset.Dataset) {
	h.Data = d
	h.Invalidate()
}

// AddRow incrementally credits one appended instance to every cached
// node table and the totals, so the remedy loop can keep the hierarchy
// consistent without recounting (the tables for masks not yet
// materialized are computed lazily from the already-updated dataset,
// which keeps the two sources consistent).
func (h *Hierarchy) AddRow(row []int32, positive bool) {
	h.adjust(row, positive, +1)
}

// RemoveRow incrementally debits one removed instance.
func (h *Hierarchy) RemoveRow(row []int32, positive bool) {
	h.adjust(row, positive, -1)
}

// FlipRow incrementally moves one instance across classes
// (nowPositive reports the label after the flip).
func (h *Hierarchy) FlipRow(row []int32, nowPositive bool) {
	delta := 1
	if !nowPositive {
		delta = -1
	}
	h.totals.Pos += delta
	for mask, table := range h.tables {
		k := h.Space.RowKey(row, mask)
		c := table[k]
		c.Pos += delta
		table[k] = c
	}
}

func (h *Hierarchy) adjust(row []int32, positive bool, delta int) {
	h.totals.N += delta
	if positive {
		h.totals.Pos += delta
	}
	for mask, table := range h.tables {
		k := h.Space.RowKey(row, mask)
		c := table[k]
		c.N += delta
		if positive {
			c.Pos += delta
		}
		table[k] = c
	}
}

// masksForScope returns the node masks to traverse, in bottom-up
// (leaf-to-level-1) order as prescribed by §III.
func (h *Hierarchy) masksForScope(s Scope) []uint32 {
	dim := h.Space.Dim()
	full := uint32(1<<uint(dim)) - 1
	switch s {
	case Leaf:
		return []uint32{full}
	case Top:
		ms := make([]uint32, 0, dim)
		for i := 0; i < dim; i++ {
			ms = append(ms, 1<<uint(i))
		}
		return ms
	}
	all := h.Space.Masks() // level order, ascending; skip level 0
	out := make([]uint32, 0, len(all)-1)
	for i := len(all) - 1; i >= 1; i-- {
		out = append(out, all[i])
	}
	return out
}

// sortRegions orders the IBS deterministically: by level descending
// (leaf first, matching the traversal), then by key.
func (h *Hierarchy) sortRegions(rs []Region) {
	sp := h.Space
	sort.Slice(rs, func(i, j int) bool {
		li, lj := rs[i].Pattern.Level(), rs[j].Pattern.Level()
		if li != lj {
			return li > lj
		}
		return sp.Key(rs[i].Pattern) < sp.Key(rs[j].Pattern)
	})
}

// levelOf returns the popcount of a mask (the hierarchy level).
func levelOf(mask uint32) int { return bits.OnesCount32(mask) }
