package distrib

// Tests for the fleet-service distrib features: dead-worker revival
// (RetryPolicy.ProbeInterval), dynamic registration (NewPool/AddWorker),
// artifact seeding on 412, and the graceful-drain protocol.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/trace"
)

// downableHandler simulates a daemon that can die and come back: while
// down, every connection is hard-closed (healthz and info included),
// which is what a SIGKILLed process looks like to the coordinator.
type downableHandler struct {
	down atomic.Bool
	runs atomic.Int64
	h    http.Handler
}

func (d *downableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.down.Load() {
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
		return
	}
	if r.URL.Path == "/v1/run" {
		d.runs.Add(1)
	}
	d.h.ServeHTTP(w, r)
}

func waitAlive(t *testing.T, pool *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, alive := pool.Workers(); alive == want {
			return
		}
		if time.Now().After(deadline) {
			_, alive := pool.Workers()
			t.Fatalf("%d workers alive, want %d", alive, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadWorkerRevival is the revival satellite end to end: a worker
// dies (job fails over), the prober notices it is back, and the same
// worker — same pool, no redial by the caller — executes jobs again,
// with results byte-identical to a local run throughout.
func TestDeadWorkerRevival(t *testing.T) {
	flaky := &downableHandler{h: (&Server{Capacity: 1}).Handler()}
	flakySrv := httptest.NewServer(flaky)
	t.Cleanup(flakySrv.Close)
	healthy, healthyCount := startWorker(t, 1)

	pool, err := Dial([]string{flakySrv.URL, healthy.URL},
		RetryPolicy{Backoff: time.Millisecond, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	o := engine.DefaultOptions("416.gamess")
	o.Instructions = 20_000
	want, err := engine.Run(o)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the flaky worker dies; slot 0 (homed on it) fails over.
	flaky.down.Store(true)
	res, err := pool.Run(0, o)
	if err != nil {
		t.Fatalf("run during outage: %v", err)
	}
	assertSameResult(t, want, res, "during outage")
	if _, alive := pool.Workers(); alive != 1 {
		t.Fatalf("%d workers alive during outage, want 1", alive)
	}

	// Phase 2: the worker comes back; the prober must revive it without
	// any coordinator-side action.
	flaky.down.Store(false)
	waitAlive(t, pool, 2)

	// Phase 3: the revived worker executes again — run a job homed on its
	// slot and check the run counter moved.
	before := flaky.runs.Load()
	o2 := o
	o2.Seed = 7 // distinct job, so the warm cache can't satisfy it
	want2, err := engine.Run(o2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := pool.Run(0, o2)
	if err != nil {
		t.Fatalf("run after revival: %v", err)
	}
	assertSameResult(t, want2, res2, "after revival")
	if flaky.runs.Load() == before {
		t.Errorf("revived worker executed no jobs (healthy worker ran %d)", healthyCount.runs.Load())
	}
}

// TestNoRevivalWithoutProbeInterval pins the historical semantics:
// ProbeInterval zero means markDead is forever.
func TestNoRevivalWithoutProbeInterval(t *testing.T) {
	flaky := &downableHandler{h: (&Server{Capacity: 1}).Handler()}
	srv := httptest.NewServer(flaky)
	t.Cleanup(srv.Close)
	healthy, _ := startWorker(t, 1)
	pool, err := Dial([]string{srv.URL, healthy.URL}, RetryPolicy{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	o := engine.DefaultOptions("416.gamess")
	o.Instructions = 20_000
	flaky.down.Store(true)
	if _, err := pool.Run(0, o); err != nil {
		t.Fatal(err)
	}
	flaky.down.Store(false)
	time.Sleep(50 * time.Millisecond)
	if _, alive := pool.Workers(); alive != 1 {
		t.Errorf("%d workers alive, want 1 (no revival without ProbeInterval)", alive)
	}
}

// TestAddWorkerDynamic covers the fleet registration path: an empty pool
// gains slots as workers register, re-registration is a no-op, and a
// re-announce of a dead worker revives it immediately.
func TestAddWorkerDynamic(t *testing.T) {
	pool := NewPool(RetryPolicy{Backoff: time.Millisecond})
	defer pool.Close()
	if pool.Slots() != 0 {
		t.Fatalf("empty pool has %d slots", pool.Slots())
	}
	w1, _ := startWorker(t, 2)
	added, err := pool.AddWorker(w1.URL)
	if err != nil || !added {
		t.Fatalf("AddWorker: added=%v err=%v", added, err)
	}
	if pool.Slots() != 2 {
		t.Fatalf("pool has %d slots after registration, want 2", pool.Slots())
	}
	if added, err := pool.AddWorker(w1.URL); err != nil || added {
		t.Fatalf("re-registration: added=%v err=%v, want no-op", added, err)
	}
	if _, err := pool.AddWorker("127.0.0.1:1"); err == nil {
		t.Error("AddWorker of an unreachable address succeeded")
	}

	o := engine.DefaultOptions("416.gamess")
	o.Instructions = 20_000
	want, err := engine.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Run(0, o)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, res, "on registered worker")

	// Mark the worker dead by hand, then re-announce: revival without
	// waiting for a probe tick.
	pool.mu.Lock()
	pool.workers[0].dead = true
	pool.mu.Unlock()
	if added, err := pool.AddWorker(w1.URL); err != nil || added {
		t.Fatalf("revival re-announce: added=%v err=%v", added, err)
	}
	if _, alive := pool.Workers(); alive != 1 {
		t.Errorf("worker not revived by re-registration")
	}
}

// TestArtifactSeeding is the push-pull satellite: a worker with an EMPTY
// trace directory 412s on a trace job, the coordinator seeds it from its
// own copy, and the SAME worker then completes the job — no other worker
// exists to fall back to. The seeded file must land content-addressed.
func TestArtifactSeeding(t *testing.T) {
	srcDir := t.TempDir()
	tracePath := filepath.Join(srcDir, "workload.trace")
	gen, err := trace.NewWorkload("456.hmmer", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTraceFile(tracePath, gen, 3000); err != nil {
		t.Fatal(err)
	}

	emptyDir := t.TempDir()
	worker, counter := startWorker(t, 1, emptyDir)
	pool, err := Dial([]string{worker.URL}, RetryPolicy{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	o := engine.DefaultOptions("456.hmmer")
	o.Workloads = []trace.Spec{trace.FileSpec(tracePath)}
	o.Instructions = 2000

	res, err := pool.Run(0, o)
	if err != nil {
		t.Fatalf("trace job with seedable worker failed: %v", err)
	}
	want, err := engine.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, res, "after seeding")
	if counter.runs.Load() != 2 {
		t.Errorf("worker saw %d run attempts, want 2 (412 then seeded success)", counter.runs.Load())
	}
	// The artifact landed under its content hash.
	sha := trace.ContentSHA(tracePath)
	if _, err := os.Stat(filepath.Join(emptyDir, sha)); err != nil {
		t.Errorf("seeded artifact not at %s/%s: %v", emptyDir, sha, err)
	}

	// A second pool resolving via ArtifactSource (no ship-time record for
	// a fresh trace) also seeds: the fleet coordinator's path.
	trace2 := filepath.Join(srcDir, "second.trace")
	gen2, err := trace.NewWorkload("416.gamess", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTraceFile(trace2, gen2, 3000); err != nil {
		t.Fatal(err)
	}
	o2 := o
	o2.Workloads = []trace.Spec{trace.FileSpec(trace2)}
	pool2, err := Dial([]string{worker.URL}, RetryPolicy{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	// Forget the ship-time record to force the hook path.
	pool2.ArtifactSource = func(sha string) (string, bool) {
		if trace.ContentSHA(trace2) == sha {
			return trace2, true
		}
		return "", false
	}
	if _, err := pool2.Run(0, o2); err != nil {
		t.Fatalf("trace job via ArtifactSource failed: %v", err)
	}
}

// TestSeedingRefusedFallsBack: a worker without any artifact directory
// cannot be seeded (403) and the job falls back to exclusion — the
// pre-seeding behaviour, now with one extra PUT attempt.
func TestSeedingRefusedFallsBack(t *testing.T) {
	srcDir := t.TempDir()
	tracePath := filepath.Join(srcDir, "w.trace")
	gen, err := trace.NewWorkload("456.hmmer", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTraceFile(tracePath, gen, 3000); err != nil {
		t.Fatal(err)
	}
	bare, _ := startWorker(t, 1) // no dirs at all: unseedable
	pool, err := Dial([]string{bare.URL}, RetryPolicy{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	o := engine.DefaultOptions("456.hmmer")
	o.Workloads = []trace.Spec{trace.FileSpec(tracePath)}
	o.Instructions = 2000
	if _, err := pool.Run(0, o); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Errorf("unseedable traceless fleet: err=%v, want trace_unavailable", err)
	}
}

// TestDrainingWorker covers the graceful-shutdown protocol: a draining
// worker 503s /healthz (no revival) and /v1/run (jobs requeue
// elsewhere), and the pool finishes the sweep on the survivor.
func TestDrainingWorker(t *testing.T) {
	drainingSrv := &Server{Capacity: 1}
	draining := httptest.NewServer(drainingSrv.Handler())
	t.Cleanup(draining.Close)
	healthy, healthyCount := startWorker(t, 1)

	pool, err := Dial([]string{draining.URL, healthy.URL},
		RetryPolicy{Backoff: time.Millisecond, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	drainingSrv.StartDraining()
	if !drainingSrv.Draining() {
		t.Fatal("Draining() false after StartDraining")
	}
	resp, err := http.Get(draining.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz answered %d, want 503", resp.StatusCode)
	}

	o := engine.DefaultOptions("416.gamess")
	o.Instructions = 20_000
	want, err := engine.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Run(0, o) // slot 0 homes on the draining worker
	if err != nil {
		t.Fatalf("run against draining worker: %v", err)
	}
	assertSameResult(t, want, res, "with draining worker")
	if healthyCount.runs.Load() != 1 {
		t.Errorf("healthy worker ran %d jobs, want 1", healthyCount.runs.Load())
	}
	// The prober must NOT revive a draining worker.
	time.Sleep(30 * time.Millisecond)
	if _, alive := pool.Workers(); alive != 1 {
		t.Errorf("%d workers alive, want 1 (draining worker must stay out)", alive)
	}
	if n := drainingSrv.InFlight(); n != 0 {
		t.Errorf("InFlight()=%d with nothing running", n)
	}
}

func assertSameResult(t *testing.T, want, got engine.Result, context string) {
	t.Helper()
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Errorf("result %s diverged from local\nlocal:  %s\nremote: %s", context, wb, gb)
	}
}
