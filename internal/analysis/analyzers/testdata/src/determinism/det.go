// Package determinism is a remedylint fixture for the seeded-RNG,
// wall-clock, and map-iteration-order rules.
package determinism

import (
	"fmt"
	"math/rand" // want "import of math/rand"
	"sort"
	"time"
)

func ambient() int {
	return rand.Intn(6) // want "package-level math/rand.Intn"
}

func wallClock() time.Time {
	return time.Now() // want "time.Now"
}

func waivedClock() time.Time {
	//lint:allow determinism fixture: sanctioned wall-clock read
	return time.Now()
}

// Consuming an injected, seeded *rand.Rand is the sanctioned pattern:
// naming the type is not a finding (only the import line above is).
func draw(r *rand.Rand) int {
	return r.Intn(6)
}

func unordered(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "range over map"
	}
}

func ordered(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

// oversampleCells is the shape of a per-cell oversampler that visits
// its cells in map order: every draw from the seeded RNG lands on a
// different cell from run to run, so the same seed gives different
// synthetic rows.
func oversampleCells(cells map[uint64][]int, target int, r *rand.Rand) []int {
	var picks []int
	for _, cell := range cells {
		for add := target - len(cell); add > 0; add-- {
			picks = append(picks, cell[r.Intn(len(cell))]) // want "seeded RNG"
		}
	}
	return picks
}

func waivedDraw(single map[string][]int, r *rand.Rand) int {
	for _, cell := range single {
		//lint:allow determinism fixture: the map holds one entry by construction
		return cell[r.Intn(len(cell))]
	}
	return -1
}

// pickFrom draws on behalf of its caller: handing it the RNG inside a
// map range is a draw in map order all the same.
func pickFrom(cell []int, r *rand.Rand) int {
	return cell[r.Intn(len(cell))]
}

func delegatedDraw(cells map[uint64][]int, r *rand.Rand) []int {
	var picks []int
	for _, cell := range cells {
		picks = append(picks, pickFrom(cell, r)) // want "passes a seeded RNG"
	}
	return picks
}

func waivedDelegatedDraw(single map[string][]int, r *rand.Rand) int {
	for _, cell := range single {
		//lint:allow determinism fixture: the map holds one entry by construction
		return pickFrom(cell, r)
	}
	return -1
}
