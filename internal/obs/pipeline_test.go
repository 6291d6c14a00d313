package obs_test

// Integration tests: the obs layer observed through the real pipeline
// (identify → remedy), including PR 1's partial-result contract — a
// cancelled run must still flush a valid trace and metrics snapshot.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/synth"
)

func obsContext(t *testing.T) (context.Context, *obs.Tracer, *obs.Registry) {
	t.Helper()
	tr := obs.NewTracer()
	m := obs.NewRegistry()
	ctx := obs.WithTracer(context.Background(), tr)
	ctx = obs.WithMetrics(ctx, m)
	return ctx, tr, m
}

// TestIdentifyInstrumented: a full identification populates the work
// counters and a span tree with per-level children.
func TestIdentifyInstrumented(t *testing.T) {
	ctx, tr, m := obsContext(t)
	d := synth.CompasN(2000, 1)
	res, err := core.IdentifyOptimizedCtx(ctx, d, core.Config{TauC: 0.1, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("identify.nodes_visited").Value(); got != int64(res.Explored) || got == 0 {
		t.Fatalf("identify.nodes_visited = %d, want %d (nonzero)", got, res.Explored)
	}
	if got := m.Counter("identify.regions_flagged").Value(); got != int64(len(res.Regions)) {
		t.Fatalf("identify.regions_flagged = %d, want %d", got, len(res.Regions))
	}
	if m.Counter("identify.nodes_pruned").Value() != int64(res.Pruned) {
		t.Fatal("identify.nodes_pruned mismatch")
	}
	spans := tr.Snapshot()
	var rootID uint64
	levels := 0
	for _, s := range spans {
		switch s.Name {
		case "core.identify.optimized":
			rootID = s.ID
		case "core.identify.level":
			levels++
		}
	}
	if rootID == 0 || levels == 0 {
		t.Fatalf("span tree missing identify root or level spans: %+v", spans)
	}
	for _, s := range spans {
		if s.Name == "core.identify.level" && s.Parent != rootID {
			t.Fatalf("level span not parented to identify root: %+v", s)
		}
	}
}

// TestParallelIdentifyShardSpans: the pooled traversal emits one shard
// span per hierarchy node, each parented under its level's span, and
// counts its work like the inline one.
func TestParallelIdentifyShardSpans(t *testing.T) {
	ctx, tr, m := obsContext(t)
	d := synth.CompasN(2000, 1)
	if _, err := core.IdentifyOptimizedCtx(ctx, d, core.Config{TauC: 0.1, T: 1, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	levels := map[uint64]bool{}
	for _, s := range spans {
		switch s.Name {
		case "core.identify.level":
			levels[s.ID] = true
		case "core.identify.parallel":
			t.Fatalf("unexpected separate parallel root span: %+v", s)
		}
	}
	shards := 0
	for _, s := range spans {
		if s.Name == "core.identify.shard" {
			shards++
			if !levels[s.Parent] {
				t.Fatalf("shard span not under a level span: %+v", s)
			}
		}
	}
	// Three protected attributes: 7 lattice nodes over 3 levels.
	if len(levels) != 3 || shards != 7 {
		t.Fatalf("got %d level and %d shard spans, want 3 and 7", len(levels), shards)
	}
	if m.Counter("identify.nodes_visited").Value() == 0 {
		t.Fatal("parallel run must count nodes_visited")
	}
}

// TestCancelledRunFlushesPartialSnapshot is the PR 1 tie-in: a remedy
// run cancelled mid-flight must leave a trace that serializes to valid
// JSON (open spans marked unfinished) and a metrics snapshot counting
// exactly the work that happened before the cut.
func TestCancelledRunFlushesPartialSnapshot(t *testing.T) {
	ctx, tr, m := obsContext(t)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Cancel from inside the remedy loop after the second node, and grab
	// a mid-flight snapshot there — the moment a signal handler or
	// watchdog would flush — while the remedy.apply span is still open.
	nodes := 0
	var midFlight bytes.Buffer
	faults.Set(faults.RemedyNode, func(any) error {
		nodes++
		if nodes == 2 {
			if err := tr.WriteJSON(&midFlight); err != nil {
				t.Errorf("mid-flight flush: %v", err)
			}
			cancel()
		}
		return nil
	})
	t.Cleanup(faults.Reset)

	d := synth.CompasN(3000, 1)
	out, rep, err := remedy.ApplyCtx(ctx, d, remedy.Options{
		Identify: core.Config{TauC: 0.05, T: 1, MinSize: 5},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil || rep == nil {
		t.Fatal("partial-result contract: nil dataset, non-nil report")
	}

	// The mid-flight snapshot must be valid JSON with the in-progress
	// span marked unfinished.
	var doc struct{ Spans []obs.SpanSnapshot }
	if err := json.Unmarshal(midFlight.Bytes(), &doc); err != nil {
		t.Fatalf("mid-flight trace is not valid JSON: %v\n%s", err, midFlight.String())
	}
	sawApply := false
	for _, s := range doc.Spans {
		if s.Name == "remedy.apply" {
			sawApply = true
			if !s.Unfinished {
				t.Fatal("in-flight remedy.apply span must be marked unfinished")
			}
		}
	}
	if !sawApply {
		t.Fatalf("no remedy.apply span in mid-flight trace: %+v", doc.Spans)
	}

	// The post-cancellation flush closes the span cleanly and stays valid.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc.Spans = nil
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("final partial trace is not valid JSON: %v", err)
	}
	for _, s := range doc.Spans {
		if s.Name == "remedy.apply" && s.Unfinished {
			t.Fatal("remedy.apply must end via defer on the cancel path")
		}
	}

	// The metrics snapshot must agree with the partial report.
	var mbuf bytes.Buffer
	if err := m.WriteJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mbuf.Bytes(), &snap); err != nil {
		t.Fatalf("partial metrics are not valid JSON: %v", err)
	}
	if snap.Counters["remedy.samples_added"] != int64(rep.Added) {
		t.Fatalf("remedy.samples_added = %d, want %d (partial report)",
			snap.Counters["remedy.samples_added"], rep.Added)
	}
	if snap.Counters["identify.nodes_visited"] == 0 {
		t.Fatal("pre-cancellation identification must have counted work")
	}
}

// TestInjectedFaultBecomesTraceEvent: a fault fired through FireCtx
// shows up as a fault.injected event on the active span.
func TestInjectedFaultBecomesTraceEvent(t *testing.T) {
	ctx, tr, _ := obsContext(t)
	injected := errors.New("injected")
	faults.Set(faults.RemedyNode, func(arg any) error {
		if mask, ok := arg.(uint32); ok && mask == 0x7 {
			return injected
		}
		return nil
	})
	t.Cleanup(faults.Reset)

	d := synth.CompasN(2000, 1)
	_, rep, err := remedy.ApplyCtx(ctx, d, remedy.Options{Identify: core.Config{TauC: 0.1, T: 1}})
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if rep == nil {
		t.Fatal("partial report must survive the fault")
	}
	found := false
	for _, s := range tr.Snapshot() {
		for _, e := range s.Events {
			if e.Name == "fault.injected" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("injected fault left no trace event")
	}
}
