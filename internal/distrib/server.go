package distrib

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/trace"
)

// Server is the worker side of the protocol: cmd/boworkerd mounts its
// Handler and the coordinator's Pool talks to it. It executes jobs with
// the same engine the coordinator would use locally (internal/engine links
// prefetch/all), bounded to Capacity concurrent simulations; excess
// requests queue rather than fail, so a coordinator rebalancing a dead
// worker's jobs onto this one degrades throughput, not correctness.
type Server struct {
	// Capacity bounds concurrent simulations; <= 0 means
	// runtime.GOMAXPROCS(0). Advertised via /v1/info.
	Capacity int
	// TraceDirs is where trace replays are resolved: jobs name traces by
	// content SHA-256 and the server indexes these directories to find a
	// matching file.
	TraceDirs []string
	// CheckpointDirs are additional directories indexed the same way for
	// warmup snapshots (jobs name them by CheckpointSHA). Snapshots
	// dropped into TraceDirs are found too — the index is shared — so a
	// fleet with one mounted artifact directory needs no extra flag.
	CheckpointDirs []string
	// SeedDir, when non-empty, is where artifacts pushed by a coordinator
	// (PUT /v1/artifacts/{sha}) are stored. Empty defaults to the first
	// TraceDir, then the first CheckpointDir; with no directory at all the
	// endpoint refuses uploads (403 no_artifact_dir).
	SeedDir string
	// Log, when non-nil, receives one line per job.
	Log io.Writer

	semOnce sync.Once
	sem     chan struct{}
	logMu   sync.Mutex
	// draining is flipped by StartDraining: /healthz and /v1/run answer
	// 503 so the coordinator routes around this worker while in-flight
	// jobs finish (cmd/boworkerd's graceful SIGTERM path).
	draining atomic.Bool
	// inflight counts /v1/run requests accepted but not yet answered
	// (queued on the capacity semaphore included); the drain loop waits
	// for it to reach zero.
	inflight atomic.Int64

	traceMu       sync.Mutex
	traceIndex    map[string]string // content sha -> path
	lastTraceScan time.Time
}

func (s *Server) capacity() int {
	if s.Capacity > 0 {
		return s.Capacity
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Server) acquire() func() {
	s.semOnce.Do(func() { s.sem = make(chan struct{}, s.capacity()) })
	s.sem <- struct{}{}
	return func() { <-s.sem }
}

// StartDraining puts the server into drain mode: /healthz and /v1/run
// answer 503 (code "draining") from now on, while jobs already executing
// run to completion. cmd/boworkerd flips this on SIGTERM before waiting
// for the HTTP server to drain, so a rolling restart never loses work —
// the coordinator requeues refused jobs elsewhere and its revival prober
// picks the worker back up once it restarts.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight reports how many accepted jobs have not finished yet. After
// StartDraining no new jobs are accepted, so a zero here means the worker
// is safe to exit without losing work.
func (s *Server) InFlight() int { return int(s.inflight.Load()) }

// Handler returns the worker's HTTP API:
//
//	GET  /healthz             liveness probe: "ok", or 503 while draining
//	GET  /v1/info             capacity + protocol/schema advertisement (Info)
//	POST /v1/run              execute one Job, respond with experiments.CacheEntry
//	PUT  /v1/artifacts/{sha}  accept a trace/checkpoint upload (coordinator seeding)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Info{
			Protocol: ProtocolVersion,
			Schema:   experiments.SchemaVersion(),
			Capacity: s.capacity(),
		})
	})
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("PUT /v1/artifacts/{sha}", s.handlePutArtifact)
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMalformed, "POST only")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "worker is draining for shutdown")
		return
	}
	// Count the job as in-flight from acceptance (the draining check
	// above) to response: the drain loop must wait for jobs queued on the
	// capacity semaphore too, not just the ones already executing.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	body := http.MaxBytesReader(w, r.Body, MaxJobBytes)
	b, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeMalformed,
				fmt.Sprintf("job payload exceeds %d bytes", MaxJobBytes))
			return
		}
		writeError(w, http.StatusBadRequest, CodeMalformed, err.Error())
		return
	}
	// Check protocol/schema agreement from a lenient pre-decode before the
	// strict one: protocol bumps may remove Options fields (v3 dropped
	// Workload/TracePath), and DisallowUnknownFields would turn every
	// old-coordinator job into a generic 400 instead of the purpose-built
	// version-skew diagnostic.
	var versions struct {
		Protocol int `json:"protocol"`
		Schema   int `json:"schema"`
	}
	if err := json.Unmarshal(b, &versions); err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformed, fmt.Sprintf("decoding job: %v", err))
		return
	}
	if versions.Protocol != ProtocolVersion || versions.Schema != experiments.SchemaVersion() {
		writeError(w, http.StatusConflict, CodeSchemaMismatch,
			fmt.Sprintf("worker speaks protocol %d / schema %d, job is protocol %d / schema %d",
				ProtocolVersion, experiments.SchemaVersion(), versions.Protocol, versions.Schema))
		return
	}
	var job Job
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformed, fmt.Sprintf("decoding job: %v", err))
		return
	}
	// Resolve wire-form file specs against the local trace index. The
	// workload slice is deep-copied first: the 200 response echoes
	// job.Options verbatim (wire form, no worker-local paths), so the
	// resolution must not write through the shared slice.
	o := job.Options
	o.Workloads = append([]trace.Spec(nil), job.Options.Workloads...)
	for i, ws := range o.Workloads {
		if ws.Name != "file" {
			continue
		}
		if _, hasPath := ws.Get("path"); hasPath {
			// A coordinator-local path must never be trusted on the worker.
			writeError(w, http.StatusBadRequest, CodeMalformed,
				"file workload spec carries a path parameter; the wire form is sha-only")
			return
		}
		sha, ok := ws.Get("sha")
		if !ok {
			writeError(w, http.StatusBadRequest, CodeMalformed, "file workload spec has neither path nor sha")
			return
		}
		path, found := s.lookupTrace(sha)
		if !found {
			// The structured SHA field is what a seeding coordinator reads
			// to know which artifact to push before retrying here.
			writeJSON(w, http.StatusPreconditionFailed, ErrorBody{
				Code:  CodeTraceUnavailable,
				Error: fmt.Sprintf("no trace with content sha256 %s in %v", sha, s.TraceDirs),
				SHA:   sha,
			})
			return
		}
		o.Workloads[i] = trace.FileSpec(path)
	}
	// Recompute the cache key from the payload: OptionsHash keys trace
	// replays by content (so the worker-local path hashes identically) and
	// normalizes specs, so a mismatch means the two binaries would cache
	// this run under different identities — refusing is what keeps a
	// mixed-version fleet from poisoning the shared cache.
	if job.Key != "" {
		if got := experiments.OptionsHash(o); got != job.Key {
			writeError(w, http.StatusConflict, CodeKeyMismatch,
				fmt.Sprintf("job key %s, worker computes %s (version skew?)", job.Key, got))
			return
		}
	}
	var ckptPath string
	if job.CheckpointSHA != "" {
		// Advisory: a missing or unusable snapshot means this worker runs
		// the warmup itself, byte-identically.
		ckptPath, _ = s.lookupTrace(job.CheckpointSHA)
	}
	release := s.acquire()
	defer release()
	// One label for all of this request's log lines: WorkloadsLabel
	// re-normalizes (building validation generators) on every call.
	label := o.WorkloadsLabel()
	s.logf("run %s key=%.12s\n", label, job.Key)
	// Drive the engine under the request context: when the coordinator
	// goes away (killed sweep, retry-after-truncated-response), the
	// orphaned job aborts instead of burning a capacity slot on a result
	// nobody will read.
	res, err := runJob(r.Context(), o, ckptPath)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			s.logf("abandoned %s (coordinator gone)\n", label)
			return // the connection is dead; nothing to respond to
		}
		s.logf("fail %s: %v\n", label, err)
		writeError(w, http.StatusUnprocessableEntity, CodeSimFailed, err.Error())
		return
	}
	s.logf("done %s IPC=%.3f\n", label, res.IPC)
	writeJSON(w, http.StatusOK, experiments.CacheEntry{
		Version: experiments.SchemaVersion(),
		Options: job.Options.Normalized(), // coordinator-side spelling: file specs stay in wire (sha) form
		Result:  res,
	})
}

// runJob executes one simulation, honouring ctx cancellation via the
// steppable engine. With a resolvable warmup checkpoint it forks the
// measured region from the snapshot; any failure on that path falls back
// to the full run, which the engine's determinism guarantee makes
// byte-identical.
func runJob(ctx context.Context, o engine.Options, ckptPath string) (engine.Result, error) {
	if ckptPath != "" {
		if data, err := os.ReadFile(ckptPath); err == nil {
			if eng, err := engine.Restore(data, o); err == nil {
				return eng.Run(ctx)
			}
		}
	}
	eng, err := engine.New(o)
	if err != nil {
		return engine.Result{}, err
	}
	return eng.Run(ctx)
}

// traceRescanInterval bounds how often a lookup miss may rebuild the
// trace index: a burst of probes for traces this worker lacks answers
// from the existing index instead of serializing full directory scans,
// while traces dropped in after startup are still found within seconds.
const traceRescanInterval = 5 * time.Second

// lookupTrace resolves a trace content hash to a local file path. Hits
// re-validate the file's current content (a trace edited in place stops
// matching and falls through to a rescan); misses rebuild the index from
// TraceDirs — at most once per traceRescanInterval — so traces dropped
// in after startup are found and stale mappings vanish. Hashing goes
// through experiments.TraceContentSHA — the exact function the cache
// keys by, memoized by size+mtime — so rescans re-read only changed
// files and the worker can never disagree with the coordinator about a
// trace's identity.
func (s *Server) lookupTrace(sha string) (string, bool) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if p, ok := s.traceIndex[sha]; ok {
		if experiments.TraceContentSHA(p) == sha {
			return p, true
		}
		// Edited in place: drop the stale mapping so the throttled branch
		// below reports a miss (412, retry elsewhere) rather than handing
		// back a file that no longer matches the requested content.
		delete(s.traceIndex, sha)
	}
	if s.traceIndex != nil && time.Since(s.lastTraceScan) < traceRescanInterval {
		p, ok := s.traceIndex[sha]
		return p, ok
	}
	s.rescanTracesLocked()
	p, ok := s.traceIndex[sha]
	return p, ok
}

// WarmTraceIndex hashes the trace corpus up front and returns how many
// traces were indexed, so a daemon with a large -trace-dir pays for the
// initial scan at startup instead of inside the first trace job's
// request (which would stall every concurrent trace lookup on traceMu).
func (s *Server) WarmTraceIndex() int {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.rescanTracesLocked()
	return len(s.traceIndex)
}

// rescanTracesLocked rebuilds the content-hash index from TraceDirs.
// Callers hold traceMu.
func (s *Server) rescanTracesLocked() {
	s.lastTraceScan = time.Now()
	s.traceIndex = make(map[string]string)
	for _, dir := range append(append([]string(nil), s.TraceDirs...), s.CheckpointDirs...) {
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			continue
		}
		for _, f := range files {
			st, err := os.Stat(f)
			if err != nil || st.IsDir() {
				continue
			}
			if h := experiments.TraceContentSHA(f); h != "" {
				s.traceIndex[h] = f
			}
		}
	}
}

// seedDir resolves where pushed artifacts land: SeedDir, else the first
// trace directory, else the first checkpoint directory.
func (s *Server) seedDir() string {
	if s.SeedDir != "" {
		return s.SeedDir
	}
	if len(s.TraceDirs) > 0 {
		return s.TraceDirs[0]
	}
	if len(s.CheckpointDirs) > 0 {
		return s.CheckpointDirs[0]
	}
	return ""
}

// handlePutArtifact accepts a trace or checkpoint upload from the
// coordinator: the body is streamed to the seed directory while being
// hashed, kept only when its SHA-256 matches the {sha} path element, and
// then inserted into the shared content index so the retried job resolves
// it without waiting for a rescan. Idempotent: re-uploading a known hash
// succeeds without rewriting the file.
func (s *Server) handlePutArtifact(w http.ResponseWriter, r *http.Request) {
	sha := r.PathValue("sha")
	if len(sha) != 64 || strings.ToLower(sha) != sha {
		writeError(w, http.StatusBadRequest, CodeMalformed, "artifact name must be a lowercase hex sha256")
		return
	}
	if _, err := hex.DecodeString(sha); err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformed, "artifact name must be a lowercase hex sha256")
		return
	}
	if p, ok := s.lookupTrace(sha); ok {
		s.logf("artifact %.12s already present at %s\n", sha, p)
		w.WriteHeader(http.StatusOK)
		return
	}
	dir := s.seedDir()
	if dir == "" {
		writeError(w, http.StatusForbidden, CodeNoArtifactDir,
			"worker has no artifact directory (start it with -trace-dir or -checkpoint-dir)")
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		writeError(w, http.StatusInternalServerError, CodeMalformed, err.Error())
		return
	}
	// Stream to a temp file while hashing, then rename into place: a
	// concurrent lookup never sees a partial artifact, and a mismatched
	// upload never lands at all.
	tmp, err := os.CreateTemp(dir, ".seed-*")
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeMalformed, err.Error())
		return
	}
	defer os.Remove(tmp.Name())
	h := sha256.New()
	_, err = io.Copy(io.MultiWriter(tmp, h), http.MaxBytesReader(w, r.Body, MaxArtifactBytes))
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeMalformed,
				fmt.Sprintf("artifact exceeds %d bytes", int64(MaxArtifactBytes)))
			return
		}
		writeError(w, http.StatusBadRequest, CodeMalformed, err.Error())
		return
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sha {
		writeError(w, http.StatusUnprocessableEntity, CodeArtifactMismatch,
			fmt.Sprintf("uploaded bytes hash to %.12s…, path names %.12s…", got, sha))
		return
	}
	final := filepath.Join(dir, sha)
	if err := os.Rename(tmp.Name(), final); err != nil {
		writeError(w, http.StatusInternalServerError, CodeMalformed, err.Error())
		return
	}
	s.traceMu.Lock()
	if s.traceIndex == nil {
		s.traceIndex = make(map[string]string)
	}
	s.traceIndex[sha] = final
	s.traceMu.Unlock()
	s.logf("artifact %.12s seeded into %s\n", sha, dir)
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) logf(format string, args ...any) {
	if s.Log == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.Log, "boworkerd: "+format, args...)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorBody{Code: code, Error: msg})
}
