package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/synth"
)

func TestParallelIdentifyMatchesSequential(t *testing.T) {
	d := synth.CompasN(4000, 17)
	for _, workers := range []int{2, 4, 8} {
		seq := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.1, T: 1})
		par := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.1, T: 1, Workers: workers})
		assertSameRegions(t, seq, par)
		if seq.Explored != par.Explored || seq.NeighborOps != par.NeighborOps {
			t.Fatalf("workers=%d: work counters differ (%d/%d vs %d/%d)",
				workers, seq.Explored, seq.NeighborOps, par.Explored, par.NeighborOps)
		}
	}
}

func TestPreloadMatchesLazyTables(t *testing.T) {
	d := synth.CompasN(2000, 23)
	lazy, err := NewHierarchy(d)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := NewHierarchy(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := eager.Preload(4); err != nil {
		t.Fatal(err)
	}
	for _, mask := range lazy.MasksForScope(Lattice) {
		a := lazy.Node(mask)
		b := eager.Node(mask)
		if len(a) != len(b) {
			t.Fatalf("mask %b: %d vs %d entries", mask, len(a), len(b))
		}
		for k, c := range a {
			if b[k] != c {
				t.Fatalf("mask %b key %d: %+v vs %+v", mask, k, c, b[k])
			}
		}
	}
	if lazy.Totals() != eager.Totals() {
		t.Fatal("totals differ")
	}
}

// TestParallelIdentifyScopes: in every scope the optimized traversal
// gives the same Result and the same per-level checkpoints at every
// Workers value, and checkpoints cut at one Workers value resume at
// another to the uninterrupted Result.
func TestParallelIdentifyScopes(t *testing.T) {
	// Six protected attributes: 63 nodes over 6 levels, so the pool
	// overlaps several levels at once.
	d := synth.AdultN(6000, 3)
	workers := []int{0, 1, 2, 4, 8}
	for _, scope := range []Scope{Lattice, Leaf, Top} {
		t.Run(scope.String(), func(t *testing.T) {
			run := func(w int, resume []LevelSnapshot) (*Result, []LevelSnapshot) {
				var snaps []LevelSnapshot
				cfg := Config{TauC: 0.1, T: 1, MinSize: 10, Scope: scope, Workers: w, Resume: resume,
					OnLevel: func(_ context.Context, snap LevelSnapshot) error {
						snaps = append(snaps, snap)
						return nil
					}}
				return mustIdentify(t, IdentifyOptimized, d, cfg), snaps
			}
			want, wantSnaps := run(0, nil)
			if len(want.Regions) == 0 {
				t.Fatal("no biased regions: the comparison would be vacuous")
			}
			snapsAt := make(map[int][]LevelSnapshot, len(workers))
			for _, w := range workers {
				got, snaps := run(w, nil)
				identicalResults(t, got, want)
				if !reflect.DeepEqual(snaps, wantSnaps) {
					t.Fatalf("workers=%d: level snapshots differ from workers=0", w)
				}
				snapsAt[w] = snaps
			}
			for i, from := range workers {
				to := workers[(i+2)%len(workers)]
				for k := 0; k <= len(wantSnaps); k++ {
					got, _ := run(to, snapsAt[from][:k])
					identicalResults(t, got, want)
				}
			}
		})
	}
}
