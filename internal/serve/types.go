package serve

import (
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// This file defines the HTTP wire types. They are shared verbatim by
// the server handlers and the Client (used by remedyctl -serve-url),
// so the two sides cannot drift apart.

// DatasetInfo is the registry's public view of one dataset.
type DatasetInfo struct {
	// ID is derived from the content hash of the CSV bytes plus the
	// target/protected configuration, so re-uploading the same data is
	// idempotent and returns the existing entry.
	ID        string   `json:"id"`
	Name      string   `json:"name,omitempty"`
	Target    string   `json:"target"`
	Protected []string `json:"protected"`
	Rows      int      `json:"rows"`
	Attrs     int      `json:"attrs"`
	Positives int      `json:"positives"`
	BaseRate  float64  `json:"base_rate"`
	// Bytes counts the CSV bytes consumed at upload (0 for datasets
	// produced server-side, e.g. a remedy job's output).
	Bytes int64 `json:"bytes"`
	// Refs is the number of live job references pinning the dataset
	// against eviction.
	Refs int `json:"refs"`
}

// AttrProfile is the cached Describe summary of one attribute.
type AttrProfile struct {
	Name      string    `json:"name"`
	Protected bool      `json:"protected"`
	Ordered   bool      `json:"ordered"`
	Values    []string  `json:"values"`
	Counts    []int     `json:"counts"`
	PosRate   []float64 `json:"pos_rate"`
}

// DatasetDetail is DatasetInfo plus the per-attribute profile,
// returned by GET /datasets/{id}.
type DatasetDetail struct {
	DatasetInfo
	Summary []AttrProfile `json:"summary"`
}

// State is a job's lifecycle state. The machine is:
//
//	queued ──▶ running ──▶ done
//	   │          ├──────▶ failed
//	   └──────────┴──────▶ cancelled
//
// queued → cancelled happens via DELETE /jobs/{id} before a worker
// picks the job up (or at shutdown); running → cancelled when the
// job's context is cancelled by DELETE or shutdown; running → failed
// covers pipeline errors, injected faults, worker panics, and the
// per-job deadline. Terminal states (done/failed/cancelled) never
// transition again.
//
// One state exists only in durable journals: a job found running when
// a crashed server's journal is replayed is recorded as interrupted,
// then immediately re-queued (attempt counter bumped) or failed once
// its attempt budget is spent. A live engine never reports it.
type State string

const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCancelled   State = "cancelled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the body of POST /jobs. Kind selects the pipeline
// stage; the remaining fields parameterize it and are validated
// against the library's sentinels (core.Config.validate via the
// identify entry point, remedy.ParseTechnique, ml.ErrUnknownModel,
// fairness.ErrUnknownStatistic) before the job is queued.
type JobRequest struct {
	// Kind is identify | remedy | train | audit.
	Kind string `json:"kind"`
	// DatasetID names a registered dataset.
	DatasetID string `json:"dataset_id"`

	// Identification parameters (identify, remedy, and the remedy half
	// of audit). Zero values take the paper's defaults: τ_c=0.1, T=1,
	// k=30, scope=lattice.
	TauC    float64 `json:"tau_c,omitempty"`
	T       int     `json:"t,omitempty"`
	MinSize int     `json:"min_size,omitempty"`
	Scope   string  `json:"scope,omitempty"`
	// Workers > 1 scans the identification's lattice nodes on that many
	// goroutines (identical results and checkpoints, more CPU).
	Workers int `json:"workers,omitempty"`

	// Technique is the remedy sampler: PS | US | DP | MS (default PS).
	Technique string `json:"technique,omitempty"`

	// Model (DT | RF | LG | NN, default DT) and Stat (FPR, FNR, …,
	// default FPR) drive train and audit jobs. MinSupport bounds the
	// audited subgroups (default 0.01).
	Model      string  `json:"model,omitempty"`
	Stat       string  `json:"stat,omitempty"`
	MinSupport float64 `json:"min_support,omitempty"`

	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS overrides the server's default per-job deadline; it is
	// clamped to the server's maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Tenant names the submitting tenant for fair-share scheduling and
	// quota accounting. The handler fills it from the X-Remedy-Tenant
	// header; "" is the default tenant. It never affects the result —
	// only admission and accounting — so the response cache ignores it.
	Tenant string `json:"tenant,omitempty"`

	// IdempotencyKey makes the submission safe to retry: a second POST
	// carrying the same key returns the job the first one created
	// instead of enqueuing a duplicate. The retrying Client fills it
	// automatically; keys survive restarts via the durable journal.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// JobStatus is the engine's public view of one job, returned by POST
// /jobs, GET /jobs, GET /jobs/{id}, and DELETE /jobs/{id}.
type JobStatus struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	DatasetID string `json:"dataset_id"`
	// Tenant is the tenant the job is accounted under (the default
	// tenant when the submission named none).
	Tenant string `json:"tenant,omitempty"`
	State  State  `json:"state"`
	// Error carries the failure detail for failed jobs and the
	// cancellation cause for cancelled ones.
	Error string `json:"error,omitempty"`
	// Progress is a snapshot of the job's private metrics registry —
	// the pipeline's live counters (identify.nodes_visited,
	// remedy.samples_added, ml.epochs, …), readable mid-run and, for a
	// job that failed partway, a faithful partial-progress report per
	// the library's partial-result contract.
	Progress map[string]int64 `json:"progress,omitempty"`

	EnqueuedAt time.Time  `json:"enqueued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	// Attempts counts how many times the job has been re-queued after a
	// crash interrupted it (0 for a job on its first run).
	Attempts int `json:"attempts,omitempty"`
}

// RegionJSON is one IBS member in an IdentifyResult.
type RegionJSON struct {
	Pattern       string  `json:"pattern"`
	N             int     `json:"n"`
	Pos           int     `json:"pos"`
	Neg           int     `json:"neg"`
	Ratio         float64 `json:"ratio"`
	NeighborRatio float64 `json:"neighbor_ratio"`
	Gap           float64 `json:"gap"`
}

// IdentifyResult is the result payload of an identify job.
type IdentifyResult struct {
	TauC     float64      `json:"tau_c"`
	T        int          `json:"t"`
	MinSize  int          `json:"min_size"`
	Scope    string       `json:"scope"`
	Explored int          `json:"explored"`
	Pruned   int          `json:"pruned"`
	Regions  []RegionJSON `json:"regions"`
}

// ActionJSON records the remedy applied to one region.
type ActionJSON struct {
	Pattern string `json:"pattern"`
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Flipped int    `json:"flipped"`
	Skipped string `json:"skipped,omitempty"`
}

// RemedyResult is the result payload of a remedy job. The remedied
// dataset is registered back into the registry under ResultDatasetID,
// so a follow-up train or audit job can run on it without re-upload.
type RemedyResult struct {
	Technique       string       `json:"technique"`
	TechniqueName   string       `json:"technique_name"`
	BiasedRegions   int          `json:"biased_regions"`
	Added           int          `json:"added"`
	Removed         int          `json:"removed"`
	Flipped         int          `json:"flipped"`
	RowsBefore      int          `json:"rows_before"`
	RowsAfter       int          `json:"rows_after"`
	ResultDatasetID string       `json:"result_dataset_id"`
	Actions         []ActionJSON `json:"actions"`
}

// TrainResult is the result payload of a train job: the model is
// trained on a stratified 70% split and scored on the held-out 30%.
type TrainResult struct {
	Model     string  `json:"model"`
	TrainRows int     `json:"train_rows"`
	TestRows  int     `json:"test_rows"`
	Accuracy  float64 `json:"accuracy"`
	IndexFPR  float64 `json:"index_fpr"`
	IndexFNR  float64 `json:"index_fnr"`
	Violation float64 `json:"violation"`
}

// SubgroupJSON is one audited subgroup in an AuditResult.
type SubgroupJSON struct {
	Pattern     string  `json:"pattern"`
	N           int     `json:"n"`
	Support     float64 `json:"support"`
	Value       float64 `json:"value"`
	Divergence  float64 `json:"divergence"`
	Significant bool    `json:"significant"`
}

// AuditResult is the result payload of an audit job: a DivExplorer
// sweep over the held-out split of a model trained on the dataset.
type AuditResult struct {
	Model     string         `json:"model"`
	Stat      string         `json:"stat"`
	Overall   float64        `json:"overall"`
	TrainRows int            `json:"train_rows"`
	TestRows  int            `json:"test_rows"`
	Accuracy  float64        `json:"accuracy"`
	Subgroups []SubgroupJSON `json:"subgroups"`
}

// Health is the body of GET /healthz and GET /readyz. /healthz always
// answers 200 with the full picture (it is the detail probe); /readyz
// answers 503 with Ready=false and a Reason while the node is
// replaying its journal, holds no cluster term, or has been deposed.
type Health struct {
	Status   string `json:"status"`
	Datasets int    `json:"datasets"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`

	// Ready is the readiness verdict; Reason explains a false one.
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`

	// Cluster identity, present when the node runs in a fleet: this
	// node's ID and role, the current leadership term, and the leader's
	// node ID.
	NodeID string `json:"node_id,omitempty"`
	Role   string `json:"role,omitempty"`
	Term   uint64 `json:"term,omitempty"`
	Leader string `json:"leader,omitempty"`

	// Lag maps follower node ID → journal frames behind the leader,
	// present on a leader running replication. A reading of 0 is in
	// sync; a growing value is the early-warning signal a handoff to
	// that follower would lose acknowledged work.
	Lag map[string]uint64 `json:"lag,omitempty"`

	// Tenants is the multi-tenant admission picture: one row per known
	// tenant with its weight/quota and lifetime accounting, in
	// deterministic registration order.
	Tenants []TenantHealth `json:"tenants,omitempty"`

	// Store is the durable compaction picture — snapshot horizon and
	// content address, journal base/size, records accumulated since the
	// last snapshot — present when the node runs on a durable store.
	Store *durable.StoreStats `json:"store,omitempty"`
}

// NodeObs is one node's observability snapshot inside a fleet view:
// its identity and health alongside its full metrics registry. The
// /cluster/obs endpoint serves it per node; the leader aggregates them
// into a FleetObs.
type NodeObs struct {
	NodeID string `json:"node_id"`
	Role   string `json:"role,omitempty"`
	Term   uint64 `json:"term,omitempty"`
	// Lag is this node's journal frames behind the leader (0 on the
	// leader itself), filled in by the leader-side aggregation.
	Lag     uint64       `json:"lag,omitempty"`
	Health  Health       `json:"health"`
	Metrics obs.Snapshot `json:"metrics"`
	// Err notes a failed snapshot fetch; the metrics are then empty but
	// the node still appears in the fleet view (absence would read as
	// health, which is the opposite of the truth).
	Err string `json:"error,omitempty"`
}

// FleetObs is the body of GET /metrics/fleet: every node's snapshot
// plus the merged registry (counters summed, gauges node-labeled,
// histograms merged bucket-wise — see obs.MergeSnapshots).
type FleetObs struct {
	Leader string       `json:"leader"`
	Term   uint64       `json:"term"`
	Nodes  []NodeObs    `json:"nodes"`
	Merged obs.Snapshot `json:"merged"`
}

// errorBody is the uniform error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}
