package main

import (
	"reflect"
	"testing"
	"time"
)

// Whatever the sample count, the reported tail percentile leaves at
// least minBeyond samples above it, and no higher level would have.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		p, ok := supportedTail(n)
		if !ok {
			if n-rank(50, n) >= minBeyond {
				t.Fatalf("n=%d: p50 is supported but none was chosen", n)
			}
			continue
		}
		if beyond := n - rank(p, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, p, beyond)
		}
		for _, higher := range tailLevels {
			if higher > p && n-rank(higher, n) >= minBeyond {
				t.Fatalf("n=%d: chose p%g though p%g is supported", n, p, higher)
			}
		}
	}
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if v, lvl := tail(vals); lvl != 99 || v != 990 {
		t.Fatalf("1000 samples: got p%g = %g, want p99 = 990", lvl, v)
	}
	if v, lvl := tail(vals[:200]); lvl != 95 || v != 190 {
		t.Fatalf("200 samples: got p%g = %g, want p95 = 190", lvl, v)
	}
	if _, lvl := tail(vals[:15]); lvl != 50 {
		t.Fatalf("15 samples: got p%g, want the median fallback", lvl)
	}
}

// A hand-built tree: a root with two overlapping children, one child
// sticking out past the root's end, and a grandchild.
func TestSelfTime(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []spanRec{
		{Trace: 1, ID: 1, Name: "root", Start: msd(0), End: msd(100)},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: msd(10), End: msd(40)},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: msd(30), End: msd(50)},
		{Trace: 1, ID: 4, Parent: 1, Name: "a", Start: msd(90), End: msd(120)},
		{Trace: 1, ID: 5, Parent: 2, Name: "c", Start: msd(15), End: msd(25)},
		{Trace: 2, ID: 6, Name: "root", Start: msd(0), End: msd(10)},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{
		1: msd(100 - 40 - 10), // children cover 10-50 and 90-100
		2: msd(30 - 10),
		3: msd(20),
		4: msd(30),
		5: msd(10),
		6: msd(10),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	by := selfByTrace(spans)
	if by[1]["a"] != 50 || by[1]["root"] != 50 || by[2]["root"] != 10 {
		t.Fatalf("per-trace self times %v", by)
	}
	if m := medianSelf(by, "a"); m != 25 {
		t.Fatalf("median self of a over traces = %g, want 25 (50 and 0)", m)
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	a, b := schedule(7, 20), schedule(7, 20)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d vs %d arrivals)", len(a), len(b))
	}
	if c := schedule(8, 20); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	kinds := map[string]int{}
	for i, x := range a {
		kinds[x.kind]++
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if x.orig >= 0 {
			o := a[x.orig]
			if x.orig >= i || o.orig != -1 || !reflect.DeepEqual(o.req, x.req) {
				t.Fatalf("arrival %d does not repeat arrival %d verbatim", i, x.orig)
			}
		}
	}
	for _, k := range []string{"identify", "train", "audit", "remedy", "upload"} {
		if kinds[k] == 0 {
			t.Fatalf("schedule has no %s arrivals: %v", k, kinds)
		}
	}
}

func TestGeneratorLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	g := &ladderRun{
		start: start,
		sched: []arrival{{at: 0}, {at: 10 * time.Millisecond}, {at: 20 * time.Millisecond}},
		obs: []opObs{
			{sent: start.Add(2 * time.Millisecond)},
			{sent: start.Add(10 * time.Millisecond)},
			{sent: start.Add(35 * time.Millisecond)},
		},
		sent: 2,
	}
	if got, want := g.lags(), []float64{2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lags %v, want %v (unsent arrivals excluded)", got, want)
	}
	g.sent = 3
	if got := g.lags(); got[2] != 15 {
		t.Fatalf("third lag %g, want 15", got[2])
	}
}

func TestWindowRates(t *testing.T) {
	from := time.Unix(1000, 0)
	var fin []time.Time
	add := func(sec float64, n int) {
		for i := 0; i < n; i++ {
			fin = append(fin, from.Add(time.Duration((sec+float64(i)/float64(n+1)/2)*float64(time.Second))))
		}
	}
	add(-1, 50) // before the span
	add(0, 100)
	add(0.5, 10)
	add(1, 104)
	add(1.5, 500) // the partial last window, not counted
	got := windowRates(fin, from, from.Add(1800*time.Millisecond))
	if want := []float64{200, 20, 208}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window rates %v, want %v", got, want)
	}
	short := []time.Time{from.Add(100 * time.Millisecond), from.Add(300 * time.Millisecond), from.Add(450 * time.Millisecond)}
	if got := windowRates(short, from, from.Add(400*time.Millisecond)); !reflect.DeepEqual(got, []float64{5}) {
		t.Fatalf("rates over 0.4 s = %v, want 2 jobs / 0.4 s = [5]", got)
	}
}
