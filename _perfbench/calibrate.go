package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared: the hypervisor steals
// CPU time and neighbours contend for caches and memory, so the same
// code can run a third slower from one minute to the next. Every run
// therefore also times a fixed calibration kernel, which calls no code
// of the repository, next to each measurement, and reports times
// rescaled to the speed the kernel measured on the reference machine.
// A change to the repository cannot move the kernel, so a slower
// program still reads slower; a slower machine does not. The raw
// wall-clock times are kept in the run's notes.

// calibRefSeconds is the kernel's time on the reference machine (2-vCPU
// Intel Xeon, Go 1.24, idle host).
const calibRefSeconds = 0.040

// calibRounds is how many kernel runs one calibration takes the
// median of.
const calibRounds = 3

var calibSink float64

// calibrate returns the kernel's median time in seconds.
func calibrate() float64 {
	runtime.GC()
	times := make([]float64, calibRounds)
	for i := range times {
		t := time.Now()
		calibSink += calibKernel()
		times[i] = time.Since(t).Seconds()
	}
	return median(times)
}

// calibAllRefSeconds is the time of one kernel on each CPU at once on
// the reference machine.
const calibAllRefSeconds = 0.045

// calibAllRounds is how many rounds one all-CPU calibration takes the
// median of.
const calibAllRounds = 7

// calibrateAll times one kernel on each CPU at once and returns the
// median round time in seconds. A measurement that keeps every CPU
// busy is rescaled by it: it sees a neighbour contending for any of
// the CPUs, which a kernel on one CPU may miss.
func calibrateAll() float64 {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	sums := make([]float64, n)
	times := make([]float64, calibAllRounds)
	for i := range times {
		var wg sync.WaitGroup
		t := time.Now()
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sums[c] += calibKernel()
			}(c)
		}
		wg.Wait()
		times[i] = time.Since(t).Seconds()
	}
	for _, v := range sums {
		calibSink += v
	}
	return median(times)
}

// calibKernel sorts 256k pseudo-random floats and fills a hash map (a
// working set of a few MiB): the float, branch and memory mix the
// repository's hot paths (tree splits, count tables, JSON and journal
// buffers) are made of.
func calibKernel() float64 { return sortAndCount(1 << 18) }

// sortAndCount sorts n pseudo-random floats and counts them into a hash
// map.
func sortAndCount(n int) float64 {
	x := uint64(88172645463325252)
	vals := make([]float64, n)
	m := make(map[uint64]int, n/4)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = float64(x>>11) / (1 << 53)
		m[x%uint64(n/2)]++
	}
	sort.Float64s(vals)
	return vals[n/2] + float64(len(m))
}

// speed is the machine's speed relative to the reference machine as
// two calibrations around a measurement saw it (1 = reference speed,
// below 1 = slower).
func speed(before, after float64) float64 {
	return calibRefSeconds / ((before + after) / 2)
}
