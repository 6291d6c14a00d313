// Package divexplorer re-implements the subgroup auditing tool the
// paper uses for evaluation (Pastor et al., "Looking for trouble:
// Analyzing classifier behavior via pattern divergence", SIGMOD 2021):
// it mines every intersectional subgroup of the protected attributes
// with sufficient support, computes the subgroup's model statistic and
// its divergence from the overall value, tests significance with
// Welch's t-test, and ranks the unfair subgroups — the machinery behind
// Fig. 3 and the Fairness Index of §V-A.d.
package divexplorer

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Subgroup is one audited subgroup with its divergence evidence.
type Subgroup struct {
	Pattern pattern.Pattern
	// N is the subgroup size; Support is N over the dataset size.
	N       int
	Support float64
	// Conf is the subgroup's confusion matrix.
	Conf ml.Confusion
	// Value is γ_g, Divergence is Δγ_g = |γ_g − γ_d|.
	Value      float64
	Divergence float64
	// T and P report Welch's t-test of the subgroup's indicator sample
	// against its complement; Significant applies the auditor's α.
	T, P        float64
	Significant bool
}

// Report is the full audit of one prediction vector under one
// statistic.
type Report struct {
	Space   *pattern.Space
	Stat    fairness.Statistic
	Alpha   float64
	Overall float64 // γ_d
	// OverallConf is the dataset-level confusion matrix.
	OverallConf ml.Confusion
	// Subgroups holds every mined subgroup, ranked by divergence
	// descending (ties by pattern key for determinism).
	Subgroups []Subgroup
}

// Options configures the audit.
type Options struct {
	// MinSupport drops subgroups below this support fraction; 0 means
	// 0.01.
	MinSupport float64
	// Alpha is the significance level of the t-test; 0 means 0.05.
	Alpha float64
	// MaxLevel caps the pattern level (0 = no cap): level 1 audits
	// single attributes only, matching independent group fairness.
	MaxLevel int
}

func (o Options) withDefaults() Options {
	if o.MinSupport <= 0 {
		o.MinSupport = 0.01
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	return o
}

// confCell accumulates integer confusion counts per region.
type confCell struct {
	tp, fp, tn, fn int32
}

func (c confCell) conf() ml.Confusion {
	return ml.Confusion{TP: float64(c.tp), FP: float64(c.fp), TN: float64(c.tn), FN: float64(c.fn)}
}

// Explore audits predictions preds over the (test) dataset d, mining
// every subgroup of the protected-attribute lattice with support at
// least opts.MinSupport.
func Explore(d *dataset.Dataset, preds []int, stat fairness.Statistic, opts Options) (*Report, error) {
	return ExploreCtx(context.Background(), d, preds, stat, opts)
}

// exploreCheckStride bounds how many rows (counting pass) or cells
// (ranking pass) are processed between ctx polls.
const exploreCheckStride = 1024

// ExploreCtx is Explore under a context: the counting pass checks ctx
// every exploreCheckStride rows and the ranking pass every
// exploreCheckStride subgroups, returning ctx.Err() and no report once
// cancelled.
func ExploreCtx(ctx context.Context, d *dataset.Dataset, preds []int, stat fairness.Statistic, opts Options) (*Report, error) {
	if err := stat.Validate(); err != nil {
		return nil, err
	}
	if len(preds) != d.Len() {
		return nil, fmt.Errorf("divexplorer: %d predictions for %d instances", len(preds), d.Len())
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("divexplorer: empty dataset")
	}
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	ctx, span := obs.StartSpan(ctx, "divexplorer.explore")
	span.SetStr("stat", string(stat))
	defer span.End()

	// One pass: accumulate confusion cells for all 2^dim projections of
	// every row — pattern.CountAll's loop with a confusion accumulator.
	cells := make(map[uint64]confCell, 1024)
	var cancelled error
	sp.ProjectRows(d, func(i int, keys []uint64) bool {
		if i%exploreCheckStride == 0 {
			if cancelled = ctx.Err(); cancelled != nil {
				return false
			}
		}
		y, p := int(d.Labels[i]), preds[i]
		for _, k := range keys {
			c := cells[k]
			switch {
			case y == 1 && p == 1:
				c.tp++
			case y == 0 && p == 1:
				c.fp++
			case y == 0 && p == 0:
				c.tn++
			default:
				c.fn++
			}
			cells[k] = c
		}
		return true
	})
	if cancelled != nil {
		return nil, cancelled
	}

	rootKey := sp.Key(pattern.NewPattern(sp.Dim()))
	overall := cells[rootKey].conf()
	rep := &Report{
		Space:       sp,
		Stat:        stat,
		Alpha:       opts.Alpha,
		Overall:     stat.Of(overall),
		OverallConf: overall,
	}
	totalBaseN, totalBaseK := stat.BaseCount(overall)

	minN := int(opts.MinSupport * float64(d.Len()))
	scanned := 0
	for k, cell := range cells {
		scanned++
		if scanned%exploreCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if k == rootKey {
			continue
		}
		conf := cell.conf()
		n := int(cell.tp + cell.fp + cell.tn + cell.fn)
		if n < minN {
			continue
		}
		p := sp.DecodeKey(k)
		if opts.MaxLevel > 0 && p.Level() > opts.MaxLevel {
			continue
		}
		value := stat.Of(conf)
		baseN, baseK := stat.BaseCount(conf)
		sg := Subgroup{
			Pattern:    p,
			N:          n,
			Support:    float64(n) / float64(d.Len()),
			Conf:       conf,
			Value:      value,
			Divergence: fairness.Divergence(value, rep.Overall),
		}
		// Welch t-test: subgroup indicator sample vs its complement.
		restN, restK := totalBaseN-baseN, totalBaseK-baseK
		if res, err := stats.WelchT(
			stats.BernoulliSummary(baseN, baseK),
			stats.BernoulliSummary(restN, restK),
		); err == nil {
			sg.T, sg.P = res.T, res.P
			sg.Significant = res.P < opts.Alpha
		}
		rep.Subgroups = append(rep.Subgroups, sg)
	}
	sort.Slice(rep.Subgroups, func(i, j int) bool {
		a, b := rep.Subgroups[i], rep.Subgroups[j]
		if a.Divergence != b.Divergence {
			return a.Divergence > b.Divergence
		}
		return sp.Key(a.Pattern) < sp.Key(b.Pattern)
	})
	if m := obs.MetricsFrom(ctx); m != nil {
		// itemsets counts the distinct populated cells the counting pass
		// generated (every candidate subgroup, before the support
		// filter); subgroups is what survived it.
		m.Counter("divexplorer.itemsets").Add(int64(len(cells)))
		m.Counter("divexplorer.subgroups").Add(int64(len(rep.Subgroups)))
	}
	span.SetInt("itemsets", int64(len(cells)))
	span.SetInt("subgroups", int64(len(rep.Subgroups)))
	return rep, nil
}

// Unfair returns the subgroups violating Def. 1 at threshold τ_d,
// preserving the divergence ranking.
func (r *Report) Unfair(tauD float64) []Subgroup {
	var out []Subgroup
	for _, g := range r.Subgroups {
		if g.Divergence > tauD {
			out = append(out, g)
		}
	}
	return out
}

// Outcomes converts the mined subgroups into the aggregate-metric
// input of package fairness.
func (r *Report) Outcomes() []fairness.GroupOutcome {
	out := make([]fairness.GroupOutcome, len(r.Subgroups))
	for i, g := range r.Subgroups {
		baseN, _ := r.Stat.BaseCount(g.Conf)
		out[i] = fairness.GroupOutcome{
			Support:     g.Support,
			Divergence:  g.Divergence,
			Significant: g.Significant,
			BaseN:       baseN,
		}
	}
	return out
}

// FairnessIndex computes the paper's Fairness Index from this audit:
// the sum of divergences over subgroups with support above minSupport
// (use 0.1 as in §V-A.d) and a significant t-test.
func (r *Report) FairnessIndex(minSupport float64) float64 {
	return fairness.FairnessIndex(r.Outcomes(), minSupport)
}

// Violation computes the GerryFair-style fairness violation from this
// audit (maximum divergence weighted by violated-population share).
func (r *Report) Violation() float64 {
	totalBase, _ := r.Stat.BaseCount(r.OverallConf)
	return fairness.Violation(r.Outcomes(), totalBase)
}
