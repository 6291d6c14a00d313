package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/divexplorer"
	"repro/internal/experiments"
	"repro/internal/fairness"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/remedy"
)

// JobKinds lists the pipeline stages the engine runs.
var JobKinds = []string{"identify", "remedy", "train", "audit"}

// jobParams is a JobRequest resolved against the library's parsers
// and sentinels, with defaults applied.
type jobParams struct {
	identify  core.Config
	technique remedy.Technique
	model     ml.ModelKind
	stat      fairness.Statistic
	minSup    float64
	seed      int64
}

// validateRequest resolves and validates a JobRequest up front, so a
// bad job is a 400 at submission rather than a failed job later. Each
// field is checked against the library's own validators: the scope
// parser, remedy.ParseTechnique, ml.NewClassifier (ErrUnknownModel),
// and fairness.Statistic.Validate (ErrUnknownStatistic).
func validateRequest(req JobRequest) (jobParams, error) {
	var p jobParams
	kindOK := false
	for _, k := range JobKinds {
		if req.Kind == k {
			kindOK = true
		}
	}
	if !kindOK {
		return p, fmt.Errorf("unknown job kind %q (want one of %s)", req.Kind, strings.Join(JobKinds, ", "))
	}
	if req.DatasetID == "" {
		return p, fmt.Errorf("dataset_id is required")
	}

	p.identify = core.Config{TauC: 0.1, T: 1, MinSize: core.DefaultMinSize, Scope: core.Lattice}
	if req.TauC != 0 {
		p.identify.TauC = req.TauC
	}
	if p.identify.TauC < 0 {
		return p, fmt.Errorf("tau_c must be >= 0, got %v", req.TauC)
	}
	if req.T != 0 {
		p.identify.T = req.T
	}
	if p.identify.T < 1 {
		return p, fmt.Errorf("t must be >= 1, got %d", req.T)
	}
	if req.MinSize != 0 {
		p.identify.MinSize = req.MinSize
	}
	if p.identify.MinSize < 1 {
		return p, fmt.Errorf("min_size must be >= 1, got %d", req.MinSize)
	}
	if req.Scope != "" {
		scope, err := core.ParseScope(req.Scope)
		if err != nil {
			return p, err
		}
		p.identify.Scope = scope
	}
	if req.Workers < 0 || req.Workers > 64 {
		return p, fmt.Errorf("workers must be in [0, 64], got %d", req.Workers)
	}
	p.identify.Workers = req.Workers

	p.technique = remedy.PreferentialSampling
	if req.Technique != "" {
		t, err := remedy.ParseTechnique(req.Technique)
		if err != nil {
			return p, err
		}
		p.technique = t
	}

	p.model = ml.DT
	if req.Model != "" {
		p.model = ml.ModelKind(strings.ToUpper(req.Model))
		if _, err := ml.NewClassifier(p.model, 1); err != nil {
			return p, err
		}
	}

	p.stat = fairness.FPR
	if req.Stat != "" {
		p.stat = fairness.Statistic(strings.ToUpper(req.Stat))
		if err := p.stat.Validate(); err != nil {
			return p, err
		}
	}

	p.minSup = req.MinSupport
	if p.minSup < 0 || p.minSup >= 1 {
		return p, fmt.Errorf("min_support must be in [0, 1), got %v", req.MinSupport)
	}
	p.seed = req.Seed
	if p.seed == 0 {
		p.seed = 1
	}
	if req.TimeoutMS < 0 {
		return p, fmt.Errorf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	if err := validateTenant(req.Tenant); err != nil {
		return p, err
	}
	return p, nil
}

// validateTenant bounds tenant names: they label metrics and health
// rows, so the charset and length are restricted ("" is the default
// tenant and always fine).
func validateTenant(name string) error {
	if name == "" {
		return nil
	}
	if len(name) > 64 {
		return fmt.Errorf("tenant name longer than 64 bytes")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("tenant name %q: want letters, digits, '.', '_', '-'", name)
		}
	}
	return nil
}

// runJob executes one job's pipeline stage. It runs on an engine
// worker under the job's context, span tree, and private metrics
// registry; the dataset reference was acquired at submission.
func (s *Server) runJob(ctx context.Context, j *job) (any, error) {
	p, err := validateRequest(j.req)
	if err != nil {
		// Unreachable via HTTP (the handler validates first), but the
		// engine re-checks so library callers get the same contract.
		return nil, err
	}
	d, release, err := s.acquireDataset(ctx, j.req.DatasetID)
	if err != nil {
		return nil, err
	}
	defer release()

	if s.store != nil && (j.req.Kind == "identify" || j.req.Kind == "remedy") {
		// Resume from the checkpoints a crashed attempt journaled (empty
		// on a first life); new checkpoints are cut per completed lattice
		// level, whatever the request's Workers.
		p.identify.Resume = j.resume
		p.identify.OnLevel = func(ctx context.Context, snap core.LevelSnapshot) error {
			return s.engine.journalCheckpoint(ctx, j.id, snap)
		}
	}

	return s.execute(ctx, d, p, j.req)
}

// execute dispatches one validated request to its pipeline stage.
func (s *Server) execute(ctx context.Context, d *dataset.Dataset, p jobParams, req JobRequest) (any, error) {
	switch req.Kind {
	case "identify":
		return s.runIdentify(ctx, d, p)
	case "remedy":
		return s.runRemedy(ctx, d, p, req.DatasetID)
	case "train":
		return s.runTrain(ctx, d, p)
	case "audit":
		return s.runAudit(ctx, d, p)
	}
	return nil, fmt.Errorf("unknown job kind %q", req.Kind)
}

// RunRequest executes one job request synchronously against this
// node's data: the execution half of work stealing. The stealing node
// owns no engine record for the job — lifecycle transitions stay on
// the leader's journal via StealQueued/CompleteStolen — so the run is
// bare: validated, dataset acquired (fetched from the fleet on miss),
// pipeline executed, result returned. Checkpoints are not cut; a
// stolen job that dies with its stealer is re-queued whole by
// RequeueStolen.
func (s *Server) RunRequest(ctx context.Context, req JobRequest) (any, error) {
	p, err := validateRequest(req)
	if err != nil {
		return nil, err
	}
	d, release, err := s.acquireDataset(ctx, req.DatasetID)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.execute(ctx, d, p, req)
}

// StealGrant is the leader's hand-off of one queued job to a stealing
// node: the job's identity and request, the attempt number fencing the
// steal, and the job's trace ID so the stealer's spans come back under
// the same cross-node trace.
type StealGrant struct {
	JobID   string     `json:"job_id"`
	Request JobRequest `json:"request"`
	Attempt int        `json:"attempt"`
	TraceID string     `json:"trace_id,omitempty"`
}

// StealQueued exposes the engine's work-stealing pop: the oldest
// queued job leaves for node, which must report its outcome through
// CompleteStolen carrying the granted attempt number (or be recovered
// by RequeueStolen).
func (s *Server) StealQueued(ctx context.Context, node string) (StealGrant, error) {
	j, attempt, err := s.engine.StealQueued(ctx, node)
	if err != nil {
		return StealGrant{}, err
	}
	_, traceID := j.tracer.Identity()
	return StealGrant{JobID: j.id, Request: j.req, Attempt: attempt, TraceID: traceID}, nil
}

// CompleteStolen lands a stolen job's terminal outcome (see the engine
// method). attempt must be the value StealQueued handed out; a report
// for a superseded attempt is rejected with ErrStaleAttempt. spans are
// the stealer's span tree, grafted into the job's trace.
func (s *Server) CompleteStolen(ctx context.Context, id string, final State, errMsg string, result json.RawMessage, node string, attempt int, spans []obs.SpanSnapshot) error {
	return s.engine.CompleteStolen(ctx, id, final, errMsg, result, node, attempt, spans)
}

// RequeueStolen returns a stolen job to the queue after its stealer
// died without reporting (see the engine method).
func (s *Server) RequeueStolen(ctx context.Context, id string) error {
	return s.engine.RequeueStolen(ctx, id)
}

func (s *Server) runIdentify(ctx context.Context, d *dataset.Dataset, p jobParams) (any, error) {
	res, err := core.IdentifyOptimizedCtx(ctx, d, p.identify)
	if err != nil {
		return nil, err
	}
	out := &IdentifyResult{
		TauC:     p.identify.TauC,
		T:        p.identify.T,
		MinSize:  p.identify.MinSize,
		Scope:    p.identify.Scope.String(),
		Explored: res.Explored,
		Pruned:   res.Pruned,
		Regions:  make([]RegionJSON, 0, len(res.Regions)),
	}
	for _, r := range res.Regions {
		out.Regions = append(out.Regions, RegionJSON{
			Pattern:       res.Space.String(r.Pattern),
			N:             r.Counts.N,
			Pos:           r.Counts.Pos,
			Neg:           r.Counts.Neg(),
			Ratio:         r.Ratio,
			NeighborRatio: r.NeighborRatio,
			Gap:           r.Gap(),
		})
	}
	return out, nil
}

func (s *Server) runRemedy(ctx context.Context, d *dataset.Dataset, p jobParams, srcID string) (any, error) {
	out, rep, err := remedy.ApplyCtx(ctx, d, remedy.Options{
		Identify: p.identify, Technique: p.technique, Seed: p.seed,
	})
	if err != nil {
		if rep != nil {
			// Surface the partial-report contract in the job's error
			// detail; the counters are also in the progress snapshot.
			return nil, fmt.Errorf("%d regions remedied (+%d/-%d/%d flips) before failure: %w",
				len(rep.Actions), rep.Added, rep.Removed, rep.Flipped, err)
		}
		return nil, err
	}
	sp, err2 := pattern.NewSpace(d.Schema)
	if err2 != nil {
		return nil, err2
	}
	info, err := s.registry.PutDataset(ctx, out, srcID+"-remedied-"+string(rep.Technique))
	if err != nil {
		return nil, fmt.Errorf("registering remedied dataset: %w", err)
	}
	res := &RemedyResult{
		Technique:       string(rep.Technique),
		TechniqueName:   rep.Technique.Name(),
		BiasedRegions:   rep.BiasedRegions,
		Added:           rep.Added,
		Removed:         rep.Removed,
		Flipped:         rep.Flipped,
		RowsBefore:      d.Len(),
		RowsAfter:       out.Len(),
		ResultDatasetID: info.ID,
		Actions:         make([]ActionJSON, 0, len(rep.Actions)),
	}
	for _, a := range rep.Actions {
		res.Actions = append(res.Actions, ActionJSON{
			Pattern: sp.String(a.Pattern),
			Added:   a.Added,
			Removed: a.Removed,
			Flipped: a.Flipped,
			Skipped: a.Skipped,
		})
	}
	return res, nil
}

func (s *Server) runTrain(ctx context.Context, d *dataset.Dataset, p jobParams) (any, error) {
	train, test := d.StratifiedSplit(0.7, p.seed)
	m, err := ml.TrainKindCtx(ctx, train, p.model, p.seed)
	if err != nil {
		return nil, err
	}
	ev, err := experiments.Score(test, m.Predict(test))
	if err != nil {
		return nil, err
	}
	return &TrainResult{
		Model:     string(p.model),
		TrainRows: train.Len(),
		TestRows:  test.Len(),
		Accuracy:  ev.Accuracy,
		IndexFPR:  ev.IndexFPR,
		IndexFNR:  ev.IndexFNR,
		Violation: ev.Violation,
	}, nil
}

func (s *Server) runAudit(ctx context.Context, d *dataset.Dataset, p jobParams) (any, error) {
	train, test := d.StratifiedSplit(0.7, p.seed)
	m, err := ml.TrainKindCtx(ctx, train, p.model, p.seed)
	if err != nil {
		return nil, err
	}
	preds := m.Predict(test)
	rep, err := divexplorer.ExploreCtx(ctx, test, preds, p.stat, divexplorer.Options{MinSupport: p.minSup})
	if err != nil {
		return nil, err
	}
	res := &AuditResult{
		Model:     string(p.model),
		Stat:      string(p.stat),
		Overall:   rep.Overall,
		TrainRows: train.Len(),
		TestRows:  test.Len(),
		Accuracy:  ml.NewConfusion(test.Labels, preds).Accuracy(),
		Subgroups: make([]SubgroupJSON, 0, len(rep.Subgroups)),
	}
	for _, g := range rep.Subgroups {
		res.Subgroups = append(res.Subgroups, SubgroupJSON{
			Pattern:     rep.Space.String(g.Pattern),
			N:           g.N,
			Support:     g.Support,
			Value:       g.Value,
			Divergence:  g.Divergence,
			Significant: g.Significant,
		})
	}
	return res, nil
}
