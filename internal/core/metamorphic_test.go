package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Metamorphic properties of Def. 3-5: transformations of the data that
// the imbalance score, the neighboring region and the IBS test are
// blind to must leave the IBS unchanged. Each property is checked for
// the naïve traversal and for the optimized one inline and pooled.

var identifiers = []struct {
	name string
	run  func(*dataset.Dataset, Config) (*Result, error)
}{
	{"naive", IdentifyNaive},
	{"optimized/workers=0", IdentifyOptimized},
	{"optimized/workers=4", func(d *dataset.Dataset, cfg Config) (*Result, error) {
		cfg.Workers = 4
		return IdentifyOptimized(d, cfg)
	}},
}

// canonicalIBS renders an IBS as sorted lines of pattern, counts and
// ratios plus the work counters. Counts are multiplied by scale, and
// each pattern passes through unmap first (nil: identity), so the
// original and the transformed run render in the same terms.
func canonicalIBS(res *Result, scale int, unmap func(pattern.Pattern) pattern.Pattern) []string {
	lines := make([]string, 0, len(res.Regions)+1)
	for _, r := range res.Regions {
		p := r.Pattern
		if unmap != nil {
			p = unmap(p)
		}
		lines = append(lines, fmt.Sprintf("%v n=%d pos=%d ratio=%v | n=%d pos=%d ratio=%v", p,
			r.Counts.N*scale, r.Counts.Pos*scale, r.Ratio,
			r.NeighborCounts.N*scale, r.NeighborCounts.Pos*scale, r.NeighborRatio))
	}
	sort.Strings(lines)
	return append(lines, fmt.Sprintf("explored=%d neighbor_ops=%d pruned=%d", res.Explored, res.NeighborOps, res.Pruned))
}

// checkMetamorphic runs every identifier on d under cfg and on the
// transformed dt under cfgT, and asserts the two IBS render alike: d's
// counts scaled by scale, dt's patterns mapped back through unmap.
func checkMetamorphic(t *testing.T, d *dataset.Dataset, cfg Config, dt *dataset.Dataset, cfgT Config, scale int, unmap func(pattern.Pattern) pattern.Pattern) {
	t.Helper()
	for _, id := range identifiers {
		want := mustIdentify(t, id.run, d, cfg)
		if len(want.Regions) == 0 {
			t.Fatalf("%s: no biased regions: the property would hold vacuously", id.name)
		}
		got := mustIdentify(t, id.run, dt, cfgT)
		if g, w := canonicalIBS(got, 1, unmap), canonicalIBS(want, scale, nil); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: IBS changed under the transformation:\n got %q\nwant %q", id.name, g, w)
		}
	}
}

// TestMetamorphicRowPermutation: counts are sums over rows, so the row
// order cannot matter.
func TestMetamorphicRowPermutation(t *testing.T) {
	d := biasedData(t)
	out := dataset.New(d.Schema)
	for _, i := range stats.NewRNG(5).Perm(d.Len()) {
		out.Append(d.Rows[i], d.Labels[i])
	}
	cfg := Config{TauC: 0.2, T: 1, MinSize: 20}
	checkMetamorphic(t, d, cfg, out, cfg, 1, nil)
}

// TestMetamorphicRowDuplication: repeating every row k times scales
// every region and neighborhood count by k, leaves every ratio as it
// is, and keeps the size filter's verdicts when MinSize scales too
// (|r| > m exactly when k|r| > km).
func TestMetamorphicRowDuplication(t *testing.T) {
	const k = 3
	d := biasedData(t)
	out := dataset.New(d.Schema)
	for i := range d.Rows {
		for c := 0; c < k; c++ {
			out.Append(d.Rows[i], d.Labels[i])
		}
	}
	cfg := Config{TauC: 0.2, T: 1, MinSize: 20}
	cfgK := cfg
	cfgK.MinSize = k * cfg.MinSize
	checkMetamorphic(t, d, cfg, out, cfgK, k, nil)
}

// TestMetamorphicValueRelabelling: under the unit distance of Def. 4 a
// protected attribute's value codes are names only, so renaming them
// by a bijection renames the IBS's patterns and changes nothing else.
func TestMetamorphicValueRelabelling(t *testing.T) {
	// age, which the planted bias involves; every testSchema attribute
	// is protected, so its slot is its attribute index.
	const attr = 0
	perm := []int32{2, 0, 1}
	inv := make([]int16, len(perm))
	for from, to := range perm {
		inv[to] = int16(from)
	}
	d := biasedData(t)
	out := dataset.New(d.Schema)
	for i, row := range d.Rows {
		r := append([]int32(nil), row...)
		r[attr] = perm[r[attr]]
		out.Append(r, d.Labels[i])
	}
	unmap := func(p pattern.Pattern) pattern.Pattern {
		q := p.Clone()
		if q[attr] != pattern.Wildcard {
			q[attr] = inv[q[attr]]
		}
		return q
	}
	cfg := Config{TauC: 0.2, T: 1, MinSize: 20}
	checkMetamorphic(t, d, cfg, out, cfg, 1, unmap)
}
