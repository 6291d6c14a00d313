package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/faults"
)

// openStore opens a durable store on dir for one server generation.
func openStore(t *testing.T, dir string) *durable.Store {
	t.Helper()
	store, err := durable.Open(context.Background(), dir, false)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// newDurableServer builds one crash-safe server generation on dir.
// The returned stop func shuts the generation down and closes its
// store — the orderly path; chaos tests that simulate a crash freeze
// the journal first, so the shutdown's appends never reach disk and
// the on-disk image is exactly what an abrupt death would leave.
func newDurableServer(t *testing.T, dir string, cfg Config) (*Client, func()) {
	t.Helper()
	store := openStore(t, dir)
	srv, err := NewDurable(context.Background(), cfg, store)
	if err != nil {
		if cerr := store.Close(); cerr != nil {
			t.Error(cerr)
		}
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	var stopped atomic.Bool
	stop := func() {
		if !stopped.CompareAndSwap(false, true) {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
		if err := store.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	}
	t.Cleanup(stop)
	return NewClient(hs.URL), stop
}

// submitAndWait runs one job to a terminal state.
func submitAndWait(t *testing.T, c *Client, req JobRequest) JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// journalRecords replays dir's journal into a slice.
func journalRecords(t *testing.T, dir string) []durable.Record {
	t.Helper()
	var recs []durable.Record
	if _, err := durable.ReplayJournal(context.Background(), dir+"/journal.wal", func(rec durable.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestDurableRestartRecoversDatasetsAndHistory(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	c, stop := newDurableServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	info := uploadCompas(t, c, 1500, 5)
	req := JobRequest{Kind: "identify", DatasetID: info.ID, TauC: 0.1, MinSize: 20, IdempotencyKey: "idem-restart"}
	st := submitAndWait(t, c, req)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	var live IdentifyResult
	if err := c.Result(ctx, st.ID, &live); err != nil {
		t.Fatal(err)
	}
	stop() // graceful restart

	c2, _ := newDurableServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	// The dataset survived via the spill area, under its original ID.
	detail, err := c2.Dataset(ctx, info.ID)
	if err != nil {
		t.Fatalf("dataset lost across restart: %v", err)
	}
	if detail.Rows != info.Rows || detail.Target != info.Target {
		t.Fatalf("restored dataset %+v, want %+v", detail.DatasetInfo, info)
	}
	// The finished job is queryable history...
	got, err := c2.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Attempts != 0 {
		t.Fatalf("recovered job = %+v, want done at attempt 0", got)
	}
	// ...but its result payload was not retained: 410, not a hang or a
	// phantom re-run.
	var res IdentifyResult
	err = c2.Result(ctx, st.ID, &res)
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusGone {
		t.Fatalf("result after restart: err = %v, want 410", err)
	}
	// The idempotency key survived the restart: re-submitting the same
	// request returns the recovered job, not a duplicate.
	st2, err := c2.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("idempotent resubmit created %s, want the recovered %s", st2.ID, st.ID)
	}
}

// freezeJournalAfter installs a durable.journal.append hook that lets
// appends through until trip reports true for a record, then fails
// that append and every later one. A frozen journal is the on-disk
// image of a process that died right after its last successful append.
func freezeJournalAfter(t *testing.T, trip func(durable.Record) bool) {
	t.Helper()
	var frozen atomic.Bool
	faults.Set(faults.JournalAppend, func(arg any) error {
		if frozen.Load() {
			return errors.New("injected crash: journal unreachable")
		}
		if rec, ok := arg.(durable.Record); ok && trip(rec) {
			frozen.Store(true)
			return errors.New("injected crash: journal unreachable")
		}
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.JournalAppend) })
}

// TestCrashMidIdentifyResumesFromCheckpoint is the headline chaos
// test: a server dies (journal frozen) after two identify levels have
// been checkpointed; a new generation on the same data dir must
// re-queue the orphaned job, resume it from the checkpoints, and
// produce a byte-identical IBS to an uninterrupted run — with the job
// neither lost nor duplicated. A parallel identify (workers > 1)
// checkpoints and resumes exactly like a sequential one.
func TestCrashMidIdentifyResumesFromCheckpoint(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			crashMidIdentify(t, workers)
		})
	}
}

func crashMidIdentify(t *testing.T, workers int) {
	ctx := context.Background()
	req := JobRequest{Kind: "identify", DatasetID: "", TauC: 0.1, MinSize: 20, Workers: workers}

	// Baseline: the same job on an in-memory server, never interrupted.
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	baseInfo := uploadCompas(t, base, 1500, 5)
	req.DatasetID = baseInfo.ID
	baseSt := submitAndWait(t, base, req)
	if baseSt.State != StateDone {
		t.Fatalf("baseline job ended %s (%s)", baseSt.State, baseSt.Error)
	}
	var want IdentifyResult
	if err := base.Result(ctx, baseSt.ID, &want); err != nil {
		t.Fatal(err)
	}

	// Generation A: crash after the second checkpoint lands.
	dir := t.TempDir()
	cA, stopA := newDurableServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	info := uploadCompas(t, cA, 1500, 5)
	if info.ID != baseInfo.ID {
		t.Fatalf("content-addressed IDs diverged: %s vs %s", info.ID, baseInfo.ID)
	}
	checkpoints := 0
	freezeJournalAfter(t, func(rec durable.Record) bool {
		if rec.Type == durable.RecCheckpoint {
			checkpoints++
		}
		return checkpoints > 2 // the 3rd checkpoint append dies
	})
	st, err := cA.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = cA.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// In memory the job failed (its checkpoint write died); on disk the
	// journal says running + 2 checkpoints — the crash image.
	if st.State != StateFailed {
		t.Fatalf("job under frozen journal ended %s, want failed", st.State)
	}
	stopA()
	faults.Clear(faults.JournalAppend)

	recs := journalRecords(t, dir)
	var onDisk []durable.Record
	for _, r := range recs {
		if r.JobID == st.ID {
			onDisk = append(onDisk, r)
		}
	}
	if n := len(onDisk); n != 4 { // submit, running, cp, cp
		t.Fatalf("crash image has %d records for the job, want 4: %+v", n, onDisk)
	}

	// Generation B: recover and let the job run out.
	cB, _ := newDurableServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	got, err := cB.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("recovered job ended %s (%s), want done", got.State, got.Error)
	}
	if got.Attempts != 1 {
		t.Fatalf("recovered job at attempt %d, want 1", got.Attempts)
	}
	var resumed IdentifyResult
	if err := cB.Result(ctx, st.ID, &resumed); err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("resumed IBS differs from uninterrupted run:\n resumed: %s\n want:    %s", gotJSON, wantJSON)
	}

	// No job lost, none duplicated, and the resumed attempt checkpointed
	// only the levels it actually ran: the two recovered levels appear
	// exactly once in the journal.
	jobs, err := listJobs(cB)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("job table after recovery = %+v, want exactly the one job", jobs)
	}
	perLevel := map[int]int{}
	for _, r := range journalRecords(t, dir) {
		if r.Type == durable.RecCheckpoint && r.JobID == st.ID {
			perLevel[r.Level]++
		}
	}
	// The pattern space spans the 3 protected attributes, so a full
	// lattice identify checkpoints levels 3..1. Two landed before the
	// crash; the resumed run cuts only the remaining one.
	if len(perLevel) != 3 {
		t.Fatalf("checkpointed levels = %v, want all 3", perLevel)
	}
	for lv, n := range perLevel {
		if n != 1 {
			t.Fatalf("level %d checkpointed %d times, want once (resume must skip completed levels)", lv, n)
		}
	}
}

// listJobs fetches GET /jobs through the client's transport.
func listJobs(c *Client) ([]JobStatus, error) {
	var out []JobStatus
	err := c.do(context.Background(), http.MethodGet, "/jobs", nil, &out)
	return out, err
}

// TestCrashMidRemedyReRunsJob kills a remedy job with an injected
// worker panic while the journal is frozen at the "running" record —
// a crash with no checkpoints yet. The next generation must re-run
// the job from scratch and finish it.
func TestCrashMidRemedyReRunsJob(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cA, stopA := newDurableServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	info := uploadCompas(t, cA, 1200, 7)

	// Freeze the journal right after the "running" record lands, then
	// kill the job with an injected worker panic: in memory the job
	// fails (and the failure cannot be journaled); on disk the crash
	// image ends at "running" with no checkpoints.
	var seenRunning atomic.Bool
	freezeJournalAfter(t, func(rec durable.Record) bool {
		if seenRunning.Load() {
			return true
		}
		if rec.Type == durable.RecState && rec.State == string(StateRunning) {
			seenRunning.Store(true)
		}
		return false
	})
	faults.Set(faults.ServeJob, func(any) error { panic("injected worker crash") })
	st, err := cA.SubmitJob(ctx, JobRequest{Kind: "remedy", DatasetID: info.ID, TauC: 0.1, MinSize: 20, Technique: "PS", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err = cA.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("job under crash injection ended %s, want failed", st.State)
	}
	stopA()
	faults.Reset()

	cB, _ := newDurableServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	got, err := cB.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("re-run job ended %s (%s), want done", got.State, got.Error)
	}
	if got.Attempts != 1 {
		t.Fatalf("re-run job at attempt %d, want 1", got.Attempts)
	}
	var res RemedyResult
	if err := cB.Result(ctx, st.ID, &res); err != nil {
		t.Fatal(err)
	}
	// The remedied output landed in the registry of the new generation.
	if _, err := cB.Dataset(ctx, res.ResultDatasetID); err != nil {
		t.Fatalf("remedied dataset %s not registered: %v", res.ResultDatasetID, err)
	}
}

// TestRecoveryAttemptBudgetAndMissingDataset hand-crafts crash images
// to exercise the recovery's failure rules: a job out of attempts is
// journaled failed, and a job whose dataset cannot be restored fails
// with a clear reason instead of wedging the queue.
func TestRecoveryAttemptBudgetAndMissingDataset(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store := openStore(t, dir)
	j := store.Journal()
	mustAppend := func(rec durable.Record) {
		t.Helper()
		if err := j.Append(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	req := []byte(`{"kind":"identify","dataset_id":"ds-missing"}`)
	// job-000001: interrupted on its last allowed life.
	mustAppend(durable.Record{Type: durable.RecSubmit, JobID: "job-000001", Request: req})
	mustAppend(durable.Record{Type: durable.RecState, JobID: "job-000001", State: string(StateRunning), Attempt: 2})
	// job-000002: first life, but its dataset was never spilled.
	mustAppend(durable.Record{Type: durable.RecSubmit, JobID: "job-000002", Request: req})
	mustAppend(durable.Record{Type: durable.RecState, JobID: "job-000002", State: string(StateRunning)})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	c, _ := newDurableServer(t, dir, Config{Workers: 1, QueueDepth: 8, MaxAttempts: 3})
	budget, err := c.Job(ctx, "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if budget.State != StateFailed || !contains(budget.Error, "attempt budget exhausted") {
		t.Fatalf("over-budget job = %+v, want failed with budget detail", budget)
	}
	missing, err := c.Job(ctx, "job-000002")
	if err != nil {
		t.Fatal(err)
	}
	if missing.State != StateFailed || !contains(missing.Error, "dataset not recovered") {
		t.Fatalf("dataset-less job = %+v, want failed with dataset detail", missing)
	}
	// Both conclusions were journaled: a second recovery replays to the
	// same terminal states instead of re-queueing anything.
	recs := journalRecords(t, dir)
	failed := map[string]bool{}
	for _, r := range recs {
		if r.Type == durable.RecState && r.State == string(StateFailed) {
			failed[r.JobID] = true
		}
	}
	if !failed["job-000001"] || !failed["job-000002"] {
		t.Fatalf("recovery verdicts not journaled; records: %+v", recs)
	}
	// New submissions continue the ID sequence past the recovered ones.
	info := uploadCompas(t, c, 600, 9)
	st := submitAndWait(t, c, JobRequest{Kind: "identify", DatasetID: info.ID, TauC: 0.2, MinSize: 20})
	if st.ID != "job-000003" {
		t.Fatalf("post-recovery job ID = %s, want job-000003", st.ID)
	}
}

// TestRecoveryRequeuesJournaledQueuedJob crafts the crash image of a
// job that was acknowledged (journaled queued) but never started, on
// top of a real spilled dataset; the next generation must run it to
// completion on its first attempt.
func TestRecoveryRequeuesJournaledQueuedJob(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	cA, stopA := newDurableServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	info := uploadCompas(t, cA, 800, 11)
	stopA()

	store := openStore(t, dir)
	reqJSON, err := json.Marshal(JobRequest{Kind: "identify", DatasetID: info.ID, TauC: 0.2, MinSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Journal().Append(ctx, durable.Record{
		Type: durable.RecSubmit, JobID: "job-000042", Request: reqJSON,
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	cB, _ := newDurableServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	st, err := cB.Wait(ctx, "job-000042", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Attempts != 0 {
		t.Fatalf("recovered queued job = %+v, want done at attempt 0 (queued jobs keep their first life)", st)
	}
}

func contains(s, sub string) bool {
	return len(sub) == 0 || bytes.Contains([]byte(s), []byte(sub))
}
