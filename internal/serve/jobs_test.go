package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// gateServeJob installs a ServeJob hook that reports each job a worker
// picks up on entered, then blocks until gate is closed. Closing the
// gate releases every blocked and future invocation.
func gateServeJob(t *testing.T) (entered chan string, gate chan struct{}) {
	t.Helper()
	entered = make(chan string, 32)
	gate = make(chan struct{})
	faults.Set(faults.ServeJob, func(arg any) error {
		entered <- arg.(string)
		<-gate
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.ServeJob) })
	return entered, gate
}

func waitEntered(t *testing.T, entered chan string) string {
	t.Helper()
	select {
	case id := <-entered:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("no worker picked a job up")
		return ""
	}
}

// TestQueueBackpressure pins the single worker inside the ServeJob
// hook, fills the 2-slot queue, and checks the next submission is an
// immediate 429 rather than a blocked request.
func TestQueueBackpressure(t *testing.T) {
	ctx := context.Background()
	entered, gate := gateServeJob(t)
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	info := uploadCompas(t, c, 200, 1)

	req := JobRequest{Kind: "identify", DatasetID: info.ID}
	first, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitEntered(t, entered) // the worker holds job 1; the queue is empty

	ids := []string{first.ID}
	for i := 0; i < 2; i++ { // fill both queue slots
		st, err := c.SubmitJob(ctx, req)
		if err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}

	_, err = c.SubmitJob(ctx, req)
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %v, want 429", err)
	}

	close(gate) // drain: every held and future hook call returns
	for _, id := range ids {
		st, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %s after drain: %+v, %v", id, st, err)
		}
	}
}

// TestCancelInFlight is the cancellation acceptance path: a running
// job is cancelled over HTTP and must reach the cancelled state well
// under a second after the pipeline resumes, releasing its dataset
// reference.
func TestCancelInFlight(t *testing.T) {
	ctx := context.Background()
	entered, gate := gateServeJob(t)
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	info := uploadCompas(t, c, 2000, 3)

	st, err := c.SubmitJob(ctx, JobRequest{Kind: "identify", DatasetID: info.ID})
	if err != nil {
		t.Fatal(err)
	}
	waitEntered(t, entered)

	// DELETE while the job is mid-flight: its context is cancelled now;
	// the pipeline observes it at the first cooperative checkpoint once
	// the gate opens.
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	close(gate)
	st, err = c.Wait(ctx, st.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if lat := time.Since(start); lat > time.Second {
		t.Fatalf("cancellation took %v, want < 1s", lat)
	}
	if st.State != StateCancelled {
		t.Fatalf("state = %s (%s), want cancelled", st.State, st.Error)
	}

	// The dataset reference is back: the dataset deletes cleanly.
	req, _ := http.NewRequest(http.MethodDelete, c.BaseURL+"/datasets/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("dataset delete after cancel = %d", resp.StatusCode)
	}
}

// TestCancelQueued cancels a job before any worker picks it up.
func TestCancelQueued(t *testing.T) {
	ctx := context.Background()
	entered, gate := gateServeJob(t)
	defer close(gate)
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	info := uploadCompas(t, c, 200, 1)

	req := JobRequest{Kind: "identify", DatasetID: info.ID}
	if _, err := c.SubmitJob(ctx, req); err != nil { // occupies the worker
		t.Fatal(err)
	}
	waitEntered(t, entered)
	queued, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled || !strings.Contains(st.Error, "queued") {
		t.Fatalf("queued cancel = %+v", st)
	}
}

// TestFaultInjectedFailure forces failures through both injection
// layers — a ServeJob error at the server boundary and a worker panic
// inside the parallel identify fan-out — and checks the job surfaces
// state "failed" with the error detail while the server keeps serving.
func TestFaultInjectedFailure(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	info := uploadCompas(t, c, 500, 2)

	// Error hook at the server layer.
	faults.Set(faults.ServeJob, func(arg any) error {
		return fmt.Errorf("injected outage for %v", arg)
	})
	t.Cleanup(func() { faults.Clear(faults.ServeJob) })
	st, err := c.SubmitJob(ctx, JobRequest{Kind: "identify", DatasetID: info.ID})
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "injected outage") {
		t.Fatalf("error-hook job = %s (%q)", st.State, st.Error)
	}

	// Panic hook: the engine must absorb the crash, not lose a worker.
	faults.Set(faults.ServeJob, func(any) error { panic("injected crash") })
	st, err = c.SubmitJob(ctx, JobRequest{Kind: "identify", DatasetID: info.ID})
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("panic-hook job = %s (%q)", st.State, st.Error)
	}

	// A worker crash deep in an identify node scan (faults.IdentifyWorker
	// fires per node scan in core's node pool, here on 4 goroutines).
	faults.Clear(faults.ServeJob)
	faults.Set(faults.IdentifyWorker, func(any) error { panic("identify worker down") })
	t.Cleanup(func() { faults.Clear(faults.IdentifyWorker) })
	st, err = c.SubmitJob(ctx, JobRequest{Kind: "identify", DatasetID: info.ID, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "identify worker down") {
		t.Fatalf("identify-fault job = %s (%q)", st.State, st.Error)
	}
	faults.Clear(faults.IdentifyWorker)

	// Not wedged: the same request now succeeds.
	st, err = c.SubmitJob(ctx, JobRequest{Kind: "identify", DatasetID: info.ID})
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil || st.State != StateDone {
		t.Fatalf("post-fault job = %+v, %v", st, err)
	}
}

// TestJobTimeout gives a job a 10ms deadline and delays it past that
// inside the hook: the pipeline starts on an expired context and the
// job must fail with the deadline error, not hang.
func TestJobTimeout(t *testing.T) {
	ctx := context.Background()
	faults.Set(faults.ServeJob, func(any) error {
		time.Sleep(50 * time.Millisecond)
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.ServeJob) })
	_, c := newTestServer(t, Config{Workers: 1})
	info := uploadCompas(t, c, 200, 1)

	st, err := c.SubmitJob(ctx, JobRequest{Kind: "identify", DatasetID: info.ID, TimeoutMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("timed-out job = %s (%q)", st.State, st.Error)
	}
}

// TestConcurrentJobs floods a 2-worker pool with more jobs than slots
// from parallel clients and verifies every job completes and no
// goroutines survive the server.
func TestConcurrentJobs(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	srv := New(Config{Workers: 2, QueueDepth: 32})
	hs := httptest.NewServer(srv.Handler())
	c := NewClient(hs.URL)
	info := uploadCompas(t, c, 500, 4)

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.SubmitJob(ctx, JobRequest{Kind: "identify", DatasetID: info.ID, Seed: int64(i + 1)})
			if err != nil {
				errs <- err
				return
			}
			st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
			if err != nil {
				errs <- err
				return
			}
			if st.State != StateDone {
				errs <- fmt.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	hs.Close()
	http.DefaultClient.CloseIdleConnections()
	assertNoGoroutineLeak(t, base)
}

// TestShutdownDrain exercises the graceful path: the running job is
// allowed to finish, queued jobs are cancelled, and new submissions
// are refused with 503.
func TestShutdownDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	entered, gate := gateServeJob(t)
	srv := New(Config{Workers: 1, QueueDepth: 4})
	hs := httptest.NewServer(srv.Handler())
	c := NewClient(hs.URL)
	info := uploadCompas(t, c, 200, 1)

	req := JobRequest{Kind: "identify", DatasetID: info.ID}
	running, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitEntered(t, entered)
	queued, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate) // let the running job proceed mid-drain
	}()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// The engine is stopped but the handler still answers reads.
	st, err := c.Job(ctx, running.ID)
	if err != nil || st.State != StateDone {
		t.Fatalf("running job after drain = %+v, %v", st, err)
	}
	st, err = c.Job(ctx, queued.ID)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("queued job after drain = %+v, %v", st, err)
	}
	_, err = c.SubmitJob(ctx, req)
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: %v, want 503", err)
	}

	hs.Close()
	http.DefaultClient.CloseIdleConnections()
	assertNoGoroutineLeak(t, base)
}

// TestShutdownDeadline exercises the hard path: the drain deadline
// expires while a job is still running, the engine aborts its base
// context, and the straggler is marked cancelled once it unwinds.
func TestShutdownDeadline(t *testing.T) {
	ctx := context.Background()
	entered, gate := gateServeJob(t)
	srv := New(Config{Workers: 1, QueueDepth: 4})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)
	info := uploadCompas(t, c, 200, 1)

	st, err := c.SubmitJob(ctx, JobRequest{Kind: "identify", DatasetID: info.ID})
	if err != nil {
		t.Fatal(err)
	}
	waitEntered(t, entered)

	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate) // the straggler unwinds only after the deadline fired
	}()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(sctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard shutdown err = %v, want deadline exceeded", err)
	}

	fst, err := c.Job(ctx, st.ID)
	if err != nil || fst.State != StateCancelled {
		t.Fatalf("straggler = %+v, %v", fst, err)
	}
}
