package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// serve-mixed's job times move with the host more than with the CPU
// speed the calibration kernel sees: a job wakes several threads,
// appends and fsyncs journal records and computes a few milliseconds,
// and a contended host delays every wake-up and fsync. The workload
// therefore also times a reference service and rescales its job times
// by it. Like the kernel, the service runs on its own, never beside the
// server under test: before the ladder and in the ladder's pauses
// before the mid and the high rung, when the server is idle, so each
// rung whose job times it rescales is bracketed by two readings. The
// reference service calls no code of the repository; it takes the same
// steps as an identify job on the durable server: an HTTP round trip on
// loopback with a JSON body, a record appended and fsynced before the
// reply to the submission, a hand-off to a worker goroutine, which
// appends and fsyncs a "running" record, computes about an identify
// job's worth, appends and fsyncs two checkpoints and a "done" record.
// The request is timed from its due time to the "done" record, as a job
// is to its FinishedAt.

// probeRefMS is the first quartile of the reference service's latency
// on the reference machine (2-vCPU Intel Xeon, Go 1.24, quiet host, 20
// requests per second): the scale rescaled serve times are given in.
const probeRefMS = 3.8

// probeRate is the reference service's request rate, an open loop, and
// probeSeconds how long one reading lasts.
const (
	probeRate    = 20
	probeSeconds = 2
)

// probeServer is the reference service.
type probeServer struct {
	mu   sync.Mutex // serializes appends, like the journal's
	f    *os.File
	work chan probeTask
}

type probeTask struct {
	n    int
	done chan float64
}

func (p *probeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var in struct {
		N int `json:"n"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := p.append("submit", in.N); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	t := probeTask{n: in.N, done: make(chan float64, 1)}
	select {
	case p.work <- t:
	case <-r.Context().Done():
		return
	}
	v := <-t.done
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]float64{"v": v})
}

// append writes one record and fsyncs it.
func (p *probeServer) append(kind string, n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := fmt.Fprintf(p.f, "{\"kind\":%q,\"n\":%d}\n", kind, n); err != nil {
		return err
	}
	return p.f.Sync()
}

// worker runs each task; it returns when work closes.
func (p *probeServer) worker() error {
	var failed error
	for t := range p.work {
		var v float64
		for _, kind := range []string{"running", "compute", "checkpoint", "checkpoint", "done"} {
			var err error
			if kind == "compute" {
				v = sortAndCount(t.n)
			} else if failed == nil {
				err = p.append(kind, t.n)
			}
			if err != nil {
				failed = err
			}
		}
		t.done <- v
	}
	return failed
}

// probeService runs the reference service in dir for probeSeconds and
// returns the latency of each request in ms, timed from its due time.
func probeService(ctx context.Context, dir string) ([]float64, error) {
	f, err := os.OpenFile(filepath.Join(dir, "probe.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	ps := &probeServer{f: f, work: make(chan probeTask)}
	workerErr := make(chan error, 1)
	go func() { workerErr <- ps.worker() }()
	hs := &http.Server{Handler: ps}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	hc := &http.Client{Transport: tr}
	url := "http://" + ln.Addr().String() + "/"

	var dues []time.Duration
	r := rand.New(rand.NewSource(1))
	for at := time.Duration(0); ; {
		at += time.Duration(r.ExpFloat64() / probeRate * float64(time.Second))
		if at >= probeSeconds*time.Second {
			break
		}
		dues = append(dues, at)
	}
	lat := make([]float64, len(dues))
	errs := make([]error, len(dues))
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range dues {
		due := start.Add(at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			body := []byte(fmt.Sprintf(`{"n":%d}`, probeWork))
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := hc.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			var out map[string]float64
			errs[i] = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			lat[i] = ms(time.Since(due))
		}(i, due)
	}
	wg.Wait()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	herr := hs.Shutdown(sctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		herr = errors.Join(herr, serr)
	}
	close(ps.work)
	tr.CloseIdleConnections()
	err = errors.Join(append(errs, herr, <-workerErr, f.Close())...)
	if err != nil {
		return nil, fmt.Errorf("reference service: %w", err)
	}
	return lat, nil
}

// probeWork sizes the reference computation to about an identify job's
// run time on COMPAS.
const probeWork = 1 << 14
