package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a set of named metrics. Instrument lookups take a mutex;
// the instruments themselves are lock-free atomics, so the pattern is
// to resolve names once per operation and increment per unit of work.
// All methods are safe on a nil *Registry and return nil instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing atomic counter. Methods are
// no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float value. Methods are no-ops on a
// nil receiver.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Add adjusts the gauge by delta (negative to decrease) with a CAS
// loop — the in-flight-request counter pattern, where concurrent
// entries and exits must not lose updates.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a fixed-bucket histogram: observation i lands in the
// first bucket whose upper bound is >= v, or the overflow bucket.
// Observations also accumulate an atomic count and sum. Methods are
// no-ops on a nil receiver.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; len(buckets) = len(bounds)+1
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefaultDurationBucketsMS is a general-purpose latency bucket layout
// in milliseconds, from sub-millisecond to ten seconds.
var DefaultDurationBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds on first use. An existing histogram keeps its
// original bounds regardless of the argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the exported form of one histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	// Sum is the sum of all observations.
	Sum float64 `json:"sum"`
	// Bounds are the bucket upper bounds; Buckets has one extra final
	// entry for observations above the last bound.
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts by linear interpolation inside the target bucket — the
// standard Prometheus-style estimate, usable on a single node's
// snapshot or on buckets merged across a fleet. The overflow bucket
// has no upper bound, so a quantile landing there reports the last
// finite bound (the estimate saturates). An empty histogram is 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Buckets {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: unbounded above, so saturate at the last
			// finite bound.
			if len(h.Bounds) == 0 {
				return 0
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[len(h.Bounds)-1]
}

// merge adds other's observations into h bucket-wise; ok is false when
// the bucket layouts differ (the caller keeps them separate instead).
func (h HistogramSnapshot) merge(other HistogramSnapshot) (HistogramSnapshot, bool) {
	if len(h.Bounds) != len(other.Bounds) || len(h.Buckets) != len(other.Buckets) {
		return h, false
	}
	for i, b := range h.Bounds {
		if other.Bounds[i] != b {
			return h, false
		}
	}
	out := HistogramSnapshot{
		Count:   h.Count + other.Count,
		Sum:     h.Sum + other.Sum,
		Bounds:  append([]float64(nil), h.Bounds...),
		Buckets: make([]int64, len(h.Buckets)),
	}
	for i := range h.Buckets {
		out.Buckets[i] = h.Buckets[i] + other.Buckets[i]
	}
	return out, true
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every metric. Valid at any
// moment — concurrent increments simply land before or after the copy.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
		}
		// Count is the bucket total read here, not the live counter:
		// observations landing mid-read must not tear the two apart.
		for i := range h.buckets {
			n := h.buckets[i].Load()
			hs.Buckets = append(hs.Buckets, n)
			hs.Count += n
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON dumps an indented JSON snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Expvar returns the snapshot as a plain value, suitable for
// publishing on /debug/vars via expvar.Func — the text form every
// expvar scraper understands.
func (r *Registry) Expvar() any { return r.Snapshot() }

// Names returns every registered metric name, sorted — handy for
// debug listings and tests.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
