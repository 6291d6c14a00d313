package main

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// spanRec is one finished span: a named interval at a layer boundary,
// the span that caused it, and the trace (one pass or one job) it
// belongs to. Times are offsets from the tracer's epoch.
type spanRec struct {
	Trace  int64         `json:"trace"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps every span of a run in memory; they are written out
// when the run ends. A nil *tracer records nothing, so the untraced
// run pays only a nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// spanCtx is what a context carries for the innermost open span.
type spanCtx struct {
	trace, id int64
}

// span is an open span; end records it. A nil *span ends as a no-op.
type span struct {
	t   *tracer
	rec spanRec
}

// root opens the first span of a new trace.
func (t *tracer) root(ctx context.Context, name string, trace int64) (context.Context, *span) {
	if t == nil {
		return ctx, nil
	}
	return t.open(ctx, name, spanCtx{trace: trace})
}

// child opens a span under the innermost span in ctx.
func (t *tracer) child(ctx context.Context, name string) (context.Context, *span) {
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(spanCtx)
	return t.open(ctx, name, parent)
}

func (t *tracer) open(ctx context.Context, name string, parent spanCtx) (context.Context, *span) {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	now := time.Now()
	s := &span{t: t, rec: spanRec{Trace: parent.trace, ID: id, Parent: parent.id, Name: name, Start: now.Sub(t.epoch)}}
	return context.WithValue(ctx, spanKey{}, spanCtx{trace: parent.trace, id: id}), s
}

// startAt moves the span's start back to when its work was due.
func (s *span) startAt(at time.Time) {
	if s == nil {
		return
	}
	s.rec.Start = at.Sub(s.t.epoch)
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.endAt(time.Now())
}

// endAt closes the span at a given time (an interval the server
// reported, such as a job's queue wait).
func (s *span) endAt(at time.Time) {
	if s == nil {
		return
	}
	s.rec.End = at.Sub(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// interval records an already finished child interval under the
// innermost span in ctx.
func (t *tracer) interval(ctx context.Context, name string, from, to time.Time) {
	if t == nil || to.Before(from) {
		return
	}
	_, s := t.child(ctx, name)
	s.rec.Start = from.Sub(t.epoch)
	s.endAt(to)
}

// snapshot returns the recorded spans ordered by start.
func (t *tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func writeSpans(w io.Writer, spans []spanRec) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children are
// merged first, and children are clipped to the parent, so concurrent
// children are not subtracted twice.
func selfTimes(spans []spanRec) map[int64]time.Duration {
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals inside
// the parent's interval.
func covered(parent spanRec, kids []spanRec) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			if v.b > cur.b {
				cur.b = v.b
			}
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// selfByTrace sums self time per span name within each trace:
// result[trace][name] in milliseconds.
func selfByTrace(spans []spanRec) map[int64]map[string]float64 {
	self := selfTimes(spans)
	out := map[int64]map[string]float64{}
	for _, s := range spans {
		m := out[s.Trace]
		if m == nil {
			m = map[string]float64{}
			out[s.Trace] = m
		}
		m[s.Name] += ms(self[s.ID])
	}
	return out
}

// medianSelf is the median over traces of one span name's per-trace
// self time in milliseconds; traces without the span count as zero.
func medianSelf(byTrace map[int64]map[string]float64, name string) float64 {
	if len(byTrace) == 0 {
		return 0
	}
	vals := make([]float64, 0, len(byTrace))
	for _, m := range byTrace {
		vals = append(vals, m[name])
	}
	return median(vals)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
