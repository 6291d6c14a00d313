package pattern

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/dataset"
)

// Counts holds the per-region statistics of Def. 3: the region size and
// the number of positive instances.
type Counts struct {
	N   int // |r|
	Pos int // |r+|
}

// Neg returns |r-|.
func (c Counts) Neg() int { return c.N - c.Pos }

// Ratio returns the imbalance score ratio_r = |r+|/|r-| (Def. 3), with
// the paper's sentinel -1 when |r-| = 0.
func (c Counts) Ratio() float64 {
	if c.Neg() == 0 {
		return -1
	}
	return float64(c.Pos) / float64(c.Neg())
}

// Add accumulates one instance.
func (c *Counts) Add(positive bool) {
	c.N++
	if positive {
		c.Pos++
	}
}

// Table maps region keys (Space.Key) to their counts.
type Table map[uint64]Counts

// CountNode computes the counts of every non-empty region in one
// hierarchy node: the group-by of the dataset on the attributes of
// mask. This is the "compute and store the counts of regions" step of
// Algorithm 1 (lines 5-6).
func (sp *Space) CountNode(d *dataset.Dataset, mask uint32) Table {
	t := make(Table)
	for i, row := range d.Rows {
		k := sp.RowKey(row, mask)
		c := t[k]
		c.Add(d.Labels[i] == 1)
		t[k] = c
	}
	return t
}

// CountAll computes the counts of every non-empty region in the whole
// hierarchy in one pass: for each row, all 2^dim masked projections are
// incremented. Regions with zero instances are simply absent.
func (sp *Space) CountAll(d *dataset.Dataset) Table {
	t := make(Table, sp.NumRegions()/2)
	sp.ProjectRows(d, func(i int, keys []uint64) bool {
		pos := d.Labels[i] == 1
		for _, k := range keys {
			c := t[k]
			c.Add(pos)
			t[k] = c
		}
		return true
	})
	return t
}

// ProjectRows calls f once per row of d, in row order, with keys[m] =
// RowKey(row, m) for every node mask m < 2^dim: the row's region in
// each node of the hierarchy. keys is reused between calls. It stops
// as soon as f returns false. Callers differ only in what they
// accumulate per key.
func (sp *Space) ProjectRows(d *dataset.Dataset, f func(i int, keys []uint64) bool) {
	keys := make([]uint64, 1<<uint(sp.Dim()))
	slot := make([]uint64, sp.Dim())
	for i, row := range d.Rows {
		for s := range slot {
			slot[s] = sp.RowKey(row, 1<<uint(s))
		}
		// A mask's key is its lowest slot's key or-ed into the key of
		// the mask without that slot, which precedes it.
		for m := 1; m < len(keys); m++ {
			keys[m] = keys[m&(m-1)] | slot[bits.TrailingZeros(uint(m))]
		}
		if !f(i, keys) {
			return
		}
	}
}

// RowGroup is one non-empty region of a node with the ascending
// indices of its rows.
type RowGroup struct {
	Key  uint64
	Rows []int
}

// GroupRows partitions d's rows by their region in node mask. Groups
// come in ascending key order, so callers that draw from a seeded RNG
// per group stay reproducible.
func (sp *Space) GroupRows(d *dataset.Dataset, mask uint32) []RowGroup {
	byKey := make(map[uint64][]int)
	for i, row := range d.Rows {
		k := sp.RowKey(row, mask)
		byKey[k] = append(byKey[k], i)
	}
	groups := make([]RowGroup, 0, len(byKey))
	for k, rows := range byKey {
		groups = append(groups, RowGroup{Key: k, Rows: rows})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].Key < groups[b].Key })
	return groups
}

// RowsInEach returns RowsIn for every pattern of ps, keyed by Key, from
// one pass over d: a row is kept only where its key in one of ps's
// nodes is one of ps's keys.
func (sp *Space) RowsInEach(d *dataset.Dataset, ps []Pattern) map[uint64][]int {
	rows := make(map[uint64][]int, len(ps))
	var masks []uint32
	for _, p := range ps {
		rows[sp.Key(p)] = nil
		if m := p.Mask(); !slices.Contains(masks, m) {
			masks = append(masks, m)
		}
	}
	for i, row := range d.Rows {
		for _, m := range masks {
			k := sp.RowKey(row, m)
			if in, ok := rows[k]; ok {
				rows[k] = append(in, i)
			}
		}
	}
	return rows
}

// Totals returns the level-0 counts (the entire dataset).
func Totals(d *dataset.Dataset) Counts {
	return Counts{N: d.Len(), Pos: d.PositiveCount()}
}

// RowsIn returns the indices of the dataset rows matched by p.
func (sp *Space) RowsIn(d *dataset.Dataset, p Pattern) []int {
	var idx []int
	for i, row := range d.Rows {
		if sp.MatchRow(p, row) {
			idx = append(idx, i)
		}
	}
	return idx
}

// CountPattern counts one region by scanning the dataset; used by tests
// as the brute-force oracle and by callers needing a single region.
func (sp *Space) CountPattern(d *dataset.Dataset, p Pattern) Counts {
	var c Counts
	for i, row := range d.Rows {
		if sp.MatchRow(p, row) {
			c.Add(d.Labels[i] == 1)
		}
	}
	return c
}
