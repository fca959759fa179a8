package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/trace"
)

// RetryPolicy bounds how the coordinator reacts to lost workers: a job
// whose request dies mid-flight (connection refused, reset, truncated
// response, 5xx) is requeued on another live worker, sleeping Backoff
// first. Job-level failures (the simulation itself errors, schema skew)
// are deterministic and never retried.
type RetryPolicy struct {
	// MaxAttempts bounds execution attempts per job: each worker loss
	// consumes one, and the job fails once MaxAttempts attempts have
	// been cut short (so MaxAttempts of 1 means no failover at all).
	// <= 0 means 3, i.e. a job tolerates two worker losses.
	MaxAttempts int
	// Backoff after a worker loss; < 0 means none, 0 means 100ms.
	Backoff time.Duration
	// ProbeInterval, when > 0, enables dead-worker revival: a background
	// prober re-checks every dead worker's /healthz (and re-validates
	// protocol/schema via /v1/info) this often and returns recovered
	// workers to the rotation, so a restarted daemon rejoins the sweep
	// instead of being written off forever. 0 keeps the historical
	// behaviour: markDead is permanent for the Pool's lifetime.
	ProbeInterval time.Duration
}

// maxWorkerCapacity bounds what one worker may advertise: each capacity
// unit becomes a coordinator slot (a goroutine plus bookkeeping), so an
// absurd value from a misconfigured worker must not balloon the
// coordinator. 1024 is far above any real machine's useful simulation
// parallelism.
const maxWorkerCapacity = 1024

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 3
}

func (p RetryPolicy) backoff() time.Duration {
	if p.Backoff < 0 {
		return 0
	}
	if p.Backoff == 0 {
		return 100 * time.Millisecond
	}
	return p.Backoff
}

// worker is the coordinator's view of one boworkerd daemon.
type worker struct {
	addr     string // "host:port", display form
	base     string // "http://host:port"
	capacity int
	dead     bool
}

// Pool implements experiments.ExecBackend (checked below) without the
// experiments package knowing this package exists; cmd/experiments wires
// the two together.
var (
	_ experiments.ExecBackend       = (*Pool)(nil)
	_ experiments.CheckpointBackend = (*Pool)(nil)
)

// Pool fans the scheduler's jobs out to a fleet of workers. It satisfies
// experiments.ExecBackend: every capacity unit a worker advertises
// becomes one scheduler slot, homed on that worker; when a worker is
// lost, its slots fail over to the survivors (whose /v1/run queues
// excess jobs), so the sweep finishes as long as one worker lives.
//
// Workers can join after construction (AddWorker — the fleet service's
// registration path), and with RetryPolicy.ProbeInterval set, dead
// workers are re-probed and revived instead of being lost forever.
type Pool struct {
	retry  RetryPolicy
	client *http.Client

	// ArtifactSource, when non-nil, resolves a content hash to a local
	// file path so the pool can seed a worker that 412s on a missing
	// trace or checkpoint (PUT /v1/artifacts/{sha}). The pool also
	// remembers every path↔sha pair it ships itself (recordArtifact), so
	// plain `-workers` sweeps seed without any configuration; this hook
	// lets a fleet coordinator answer from its own artifact directories
	// too. Must be safe for concurrent use.
	ArtifactSource func(sha string) (path string, ok bool)

	mu      sync.Mutex
	workers []*worker
	home    []int // slot -> index into workers
	ordinal []int // slot -> slot ordinal within its home worker
	next    int   // round-robin cursor for failover picks

	artMu     sync.Mutex
	artifacts map[string]string // content sha -> coordinator-local path

	stopProbe chan struct{}
	closeOnce sync.Once
}

// NewPool returns an empty Pool: no workers, no slots. Workers join via
// AddWorker — the fleet coordinator's registration path — and a pool with
// zero slots simply cannot execute jobs yet. The revival prober starts
// immediately when retry.ProbeInterval > 0; call Close to stop it.
func NewPool(retry RetryPolicy) *Pool {
	// The default transport keeps only 2 idle connections per host — far
	// under a worker's concurrent slot count — which would redial TCP for
	// most jobs despite drainAndClose. Size the idle pool to cover the
	// capacity cap instead.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = maxWorkerCapacity
	transport.MaxIdleConns = 0 // no global cap beyond the per-host one
	p := &Pool{retry: retry, client: &http.Client{Transport: transport}}
	if retry.ProbeInterval > 0 {
		p.stopProbe = make(chan struct{})
		go p.probeLoop(retry.ProbeInterval)
	}
	return p
}

// Close stops the revival prober, if one is running. Jobs in flight are
// unaffected; the pool remains usable (dead workers just stay dead).
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		if p.stopProbe != nil {
			close(p.stopProbe)
		}
	})
}

// Dial contacts every worker's /v1/info, verifies protocol and schema
// agreement, and builds a Pool with one slot per advertised capacity
// unit. Any unreachable or incompatible worker fails the whole call: the
// operator listed it, so silently running without it would be a
// misconfiguration masked as a slow sweep.
func Dial(addrs []string, retry RetryPolicy) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("distrib: no worker addresses")
	}
	p := NewPool(retry)
	// Build the roster locally and install it under the lock at the end:
	// NewPool may have already started the revival prober, which walks
	// p.workers concurrently.
	var workers []*worker
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		w, err := dialWorker(p.client, addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		workers = append(workers, w)
	}
	// Interleave slots across workers (A#0, B#0, A#1, B#1, ...) so a job
	// set smaller than the total capacity still spreads over the whole
	// fleet — RunJobs clamps its slot count to the job count, and
	// contiguous homing would leave later-listed workers idle.
	var home, ordinal []int
	for k := 0; ; k++ {
		added := false
		for idx, w := range workers {
			if k < w.capacity {
				home = append(home, idx)
				ordinal = append(ordinal, k)
				added = true
			}
		}
		if !added {
			break
		}
	}
	if len(home) == 0 {
		p.Close()
		return nil, errors.New("distrib: workers advertise zero total capacity")
	}
	p.mu.Lock()
	p.workers, p.home, p.ordinal = workers, home, ordinal
	p.mu.Unlock()
	return p, nil
}

// AddWorker dials addr, validates protocol/schema agreement, and adds the
// worker to the pool with one slot per advertised capacity unit. When the
// address is already pooled, the call is a revival instead: the worker is
// returned to the rotation (its slot count unchanged) and added reports
// false. This is the fleet coordinator's registration path — a worker
// re-announcing after a restart heals itself immediately rather than
// waiting for the next probe tick.
func (p *Pool) AddWorker(addr string) (added bool, err error) {
	w, err := dialWorker(p.client, strings.TrimSpace(addr))
	if err != nil {
		return false, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, existing := range p.workers {
		if existing.addr == w.addr {
			existing.dead = false
			return false, nil
		}
	}
	idx := len(p.workers)
	p.workers = append(p.workers, w)
	for k := 0; k < w.capacity; k++ {
		p.home = append(p.home, idx)
		p.ordinal = append(p.ordinal, k)
	}
	return true, nil
}

func dialWorker(client *http.Client, addr string) (*worker, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/info", nil)
	if err != nil {
		return nil, fmt.Errorf("distrib: worker %s: %v", addr, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("distrib: worker %s unreachable: %v", addr, err)
	}
	defer drainAndClose(resp)
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("distrib: worker %s: bad /v1/info response: %v", addr, err)
	}
	if info.Protocol != ProtocolVersion || info.Schema != experiments.SchemaVersion() {
		return nil, fmt.Errorf("distrib: worker %s speaks protocol %d / schema %d, coordinator wants %d / %d",
			addr, info.Protocol, info.Schema, ProtocolVersion, experiments.SchemaVersion())
	}
	if info.Capacity < 1 || info.Capacity > maxWorkerCapacity {
		return nil, fmt.Errorf("distrib: worker %s advertises capacity %d (want 1..%d)",
			addr, info.Capacity, maxWorkerCapacity)
	}
	return &worker{addr: strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://"),
		base: base, capacity: info.Capacity}, nil
}

// probeLoop is the revival prober: every ProbeInterval it re-checks the
// dead workers and returns the recovered ones to the rotation.
func (p *Pool) probeLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stopProbe:
			return
		case <-t.C:
			p.probeDead()
		}
	}
}

// probeDead re-probes every dead worker once: /healthz first (a draining
// worker answers 503 there and must not be revived), then /v1/info via
// dialWorker so a restarted daemon with a skewed protocol or cache schema
// stays out of the rotation — reviving it would fail every job it gets.
func (p *Pool) probeDead() {
	p.mu.Lock()
	var dead []*worker
	for _, w := range p.workers {
		if w.dead {
			dead = append(dead, w)
		}
	}
	p.mu.Unlock()
	for _, w := range dead {
		if !p.healthy(w) {
			continue
		}
		if _, err := dialWorker(p.client, w.addr); err != nil {
			continue
		}
		p.mu.Lock()
		w.dead = false
		p.mu.Unlock()
	}
}

// healthy reports whether w's /healthz answers 200 right now.
func (p *Pool) healthy(w *worker) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	defer drainAndClose(resp)
	return resp.StatusCode == http.StatusOK
}

// Slots implements experiments.ExecBackend: the fleet's total capacity.
func (p *Pool) Slots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.home)
}

// SlotLabel implements experiments.ExecBackend ("host:port#2").
func (p *Pool) SlotLabel(slot int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.workers[p.home[slot]]
	return fmt.Sprintf("%s#%d", w.addr, p.ordinal[slot])
}

// Workers reports the fleet size and how many workers are still alive.
func (p *Pool) Workers() (total, alive int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		if !w.dead {
			alive++
		}
	}
	return len(p.workers), alive
}

// WorkerState is one worker's coordinator-side view, for fleet status
// displays.
type WorkerState struct {
	Addr     string `json:"addr"`
	Capacity int    `json:"capacity"`
	Alive    bool   `json:"alive"`
}

// WorkerStates snapshots every pooled worker's state.
func (p *Pool) WorkerStates() []WorkerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerState, len(p.workers))
	for i, w := range p.workers {
		out[i] = WorkerState{Addr: w.addr, Capacity: w.capacity, Alive: !w.dead}
	}
	return out
}

// Run implements experiments.ExecBackend: execute one simulation on the
// fleet, preferring the slot's home worker and failing over per
// RetryPolicy when workers are lost.
//
// Only worker losses consume the bounded retry budget. Trace probes
// (412) first trigger one artifact-seeding attempt (the coordinator
// streams its own copy to the worker and retries there), then grow the
// per-job exclusion set, which the fleet size bounds — so a trace held by
// the coordinator or any worker is found no matter how many workers
// lack it.
func (p *Pool) Run(slot int, o engine.Options) (engine.Result, error) {
	job, err := p.makeJob(o)
	if err != nil {
		return engine.Result{}, err
	}
	return p.runJob(slot, job)
}

// RunFrom implements experiments.CheckpointBackend: the job ships the
// warmup snapshot's content hash (never its bytes — the same transfer
// model as traces) and each worker resolves it against its own indexed
// directories, falling back to running the warmup itself when it has no
// copy. Either way the result bytes are those of Run.
func (p *Pool) RunFrom(slot int, o engine.Options, checkpointPath, checkpointSHA string) (engine.Result, error) {
	job, err := p.makeJob(o)
	if err != nil {
		return engine.Result{}, err
	}
	job.CheckpointSHA = checkpointSHA
	if checkpointPath != "" && checkpointSHA != "" {
		// Snapshots never 412 (they are advisory), but remembering the
		// coordinator's copy lets ArtifactSource-less callers pre-seed via
		// SeedWorker, and keeps the artifact map the one place paths live.
		p.recordArtifact(checkpointSHA, checkpointPath)
	}
	return p.runJob(slot, job)
}

func (p *Pool) runJob(slot int, job Job) (engine.Result, error) {
	lost := 0
	noTrace := make(map[*worker]bool)
	seeded := make(map[*worker]bool)
	var lastErr error
	for {
		w := p.pick(slot, noTrace)
		if w == nil {
			if lastErr == nil {
				lastErr = errors.New("all workers lost")
			}
			return engine.Result{}, fmt.Errorf("distrib: no usable worker for job: %w", lastErr)
		}
		res, verdict, eb, err := p.post(w, job)
		switch verdict {
		case verdictOK:
			return res, nil
		case verdictPermanent:
			return engine.Result{}, err
		case verdictNoTrace:
			lastErr = err
			// Before writing the worker off for this job, try to seed it
			// with the coordinator's own copy of the missing artifact —
			// once per worker per job, so a worker that discards the
			// upload cannot loop.
			if !seeded[w] && p.seedArtifact(w, eb.SHA) {
				seeded[w] = true
				continue
			}
			noTrace[w] = true
		case verdictWorkerLost:
			p.markDead(w)
			lastErr = err
			if lost++; lost >= p.retry.attempts() {
				return engine.Result{}, fmt.Errorf("distrib: job failed after losing %d workers: %w", lost, lastErr)
			}
			time.Sleep(p.retry.backoff())
		}
	}
}

// makeJob serializes one run for the wire: normalized options with every
// "file" workload spec rewritten to its content hash (never a
// coordinator-local path), plus the coordinator's cache key — which hashes
// the same wire form, so the worker's recomputation must agree. The
// path↔hash pairs the rewrite discovers are remembered for artifact
// seeding.
func (p *Pool) makeJob(o engine.Options) (Job, error) {
	n := o.Normalized()
	for i, w := range n.Workloads {
		wire, err := trace.WireSpec(w)
		if err != nil {
			return Job{}, fmt.Errorf("distrib: %v", err)
		}
		if path, ok := w.Get("path"); ok && wire.Name == "file" {
			if sha, ok := wire.Get("sha"); ok {
				p.recordArtifact(sha, path)
			}
		}
		n.Workloads[i] = wire
	}
	return Job{
		Protocol: ProtocolVersion,
		Schema:   experiments.SchemaVersion(),
		Key:      experiments.OptionsHash(n),
		Options:  n,
	}, nil
}

// recordArtifact remembers where the coordinator's copy of a
// content-addressed artifact lives, for seeding workers that lack it.
func (p *Pool) recordArtifact(sha, path string) {
	p.artMu.Lock()
	defer p.artMu.Unlock()
	if p.artifacts == nil {
		p.artifacts = make(map[string]string)
	}
	p.artifacts[sha] = path
}

// artifactPath resolves sha to a coordinator-local file: the recorded
// ship-time mapping first (re-hashed, so a file edited since then is
// never pushed under a stale identity), then the ArtifactSource hook.
func (p *Pool) artifactPath(sha string) string {
	p.artMu.Lock()
	path, ok := p.artifacts[sha]
	p.artMu.Unlock()
	if ok && trace.ContentSHA(path) == sha {
		return path
	}
	if p.ArtifactSource != nil {
		if path, ok := p.ArtifactSource(sha); ok {
			return path
		}
	}
	return ""
}

// seedArtifact streams the coordinator's copy of sha to w's artifact
// endpoint. False means the worker cannot be seeded for this hash — no
// local copy, an old worker without the endpoint, or a refused upload —
// and the caller should fall back to excluding the worker.
func (p *Pool) seedArtifact(w *worker, sha string) bool {
	if sha == "" {
		return false
	}
	path := p.artifactPath(sha)
	if path == "" {
		return false
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	req, err := http.NewRequest(http.MethodPut, w.base+"/v1/artifacts/"+sha, f)
	if err != nil {
		return false
	}
	if st, err := f.Stat(); err == nil {
		req.ContentLength = st.Size()
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	defer drainAndClose(resp)
	return resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK
}

// SeedWorker pushes the artifact with the given content hash to the named
// worker ahead of any job needing it — the fleet coordinator uses this to
// pre-place traces on newly registered workers. The worker is looked up
// by its display address ("host:port").
func (p *Pool) SeedWorker(addr, sha string) error {
	p.mu.Lock()
	var target *worker
	for _, w := range p.workers {
		if w.addr == addr {
			target = w
			break
		}
	}
	p.mu.Unlock()
	if target == nil {
		return fmt.Errorf("distrib: no pooled worker %s", addr)
	}
	if !p.seedArtifact(target, sha) {
		return fmt.Errorf("distrib: seeding %s with %.12s… failed", addr, sha)
	}
	return nil
}

// pick chooses the worker for one attempt: the slot's home worker when
// it is still usable, otherwise the next usable worker round-robin —
// spreading orphaned slots over the survivors instead of piling them on
// one.
func (p *Pool) pick(slot int, exclude map[*worker]bool) *worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w := p.workers[p.home[slot]]; !w.dead && !exclude[w] {
		return w
	}
	for i := 0; i < len(p.workers); i++ {
		w := p.workers[(p.next+i)%len(p.workers)]
		if !w.dead && !exclude[w] {
			p.next = (p.next + i + 1) % len(p.workers)
			return w
		}
	}
	return nil
}

func (p *Pool) markDead(w *worker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.dead = true
}

// drainAndClose reads the body to EOF before closing so the transport
// can return the connection to its keep-alive pool — json.Decode stops
// at the end of the value and never observes EOF, and a per-job TCP
// handshake would pile up TIME_WAIT sockets over a large sweep.
func drainAndClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

type verdict int

const (
	verdictOK verdict = iota
	// verdictPermanent: the job itself is bad (sim error, schema or key
	// skew); retrying elsewhere would fail identically.
	verdictPermanent
	// verdictNoTrace: this worker lacks the job's trace; another may
	// have it (or this one can be seeded).
	verdictNoTrace
	// verdictWorkerLost: transport-level failure, 5xx or a draining
	// worker; the worker is written off (until revived) and the job
	// requeued.
	verdictWorkerLost
)

// post runs one attempt against one worker. There is deliberately no
// request timeout: a simulation can legitimately run for minutes, and a
// killed worker surfaces promptly as a connection error anyway. The
// ErrorBody is returned alongside the verdict so callers can read
// structured fields (the 412 response's missing-artifact SHA).
func (p *Pool) post(w *worker, job Job) (engine.Result, verdict, ErrorBody, error) {
	b, err := json.Marshal(job)
	if err != nil {
		return engine.Result{}, verdictPermanent, ErrorBody{}, fmt.Errorf("distrib: encoding job: %v", err)
	}
	resp, err := p.client.Post(w.base+"/v1/run", "application/json", bytes.NewReader(b))
	if err != nil {
		return engine.Result{}, verdictWorkerLost, ErrorBody{}, fmt.Errorf("worker %s: %v", w.addr, err)
	}
	defer drainAndClose(resp)
	if resp.StatusCode == http.StatusOK {
		var entry experiments.CacheEntry
		if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
			// A truncated 200 means the worker died mid-response.
			return engine.Result{}, verdictWorkerLost, ErrorBody{}, fmt.Errorf("worker %s: truncated response: %v", w.addr, err)
		}
		if entry.Version != experiments.SchemaVersion() {
			return engine.Result{}, verdictPermanent, ErrorBody{},
				fmt.Errorf("worker %s returned cache schema v%d, want v%d", w.addr, entry.Version, experiments.SchemaVersion())
		}
		// End-to-end integrity: the returned options must describe the job
		// we sent. The worker answers in wire form (file specs by sha, the
		// resolved local path never echoed), which hashes identically to
		// the coordinator's key, so trace jobs are checked like any other.
		if got := experiments.OptionsHash(entry.Options); got != job.Key {
			return engine.Result{}, verdictPermanent, ErrorBody{},
				fmt.Errorf("worker %s returned result for key %.12s, job was %.12s", w.addr, got, job.Key)
		}
		return entry.Result, verdictOK, ErrorBody{}, nil
	}
	var eb ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	errDetail := eb.Error
	if errDetail == "" {
		errDetail = resp.Status
	}
	err = fmt.Errorf("worker %s: %s (%s)", w.addr, errDetail, eb.Code)
	switch {
	case resp.StatusCode == http.StatusPreconditionFailed:
		return engine.Result{}, verdictNoTrace, eb, err
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return engine.Result{}, verdictPermanent, eb, err
	default:
		return engine.Result{}, verdictWorkerLost, eb, err
	}
}
