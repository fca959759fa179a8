package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"bopsim/internal/engine"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// Warmup sharing. Every point of a sweep (offset/threshold sweeps, -zoo)
// replays the same trace warmup before its measured region; without
// sharing, a 40-variant sweep pays that warmup 40 times. The scheduler
// therefore groups pending jobs by warmup-equivalence key — the engine's
// WarmupSignature, which covers everything that shapes machine state up to
// the barrier and deliberately excludes the swept prefetcher specs — runs
// one warmup leg per group, checkpoints it, and forks every variant from
// the snapshot. Checkpoints are cached content-addressed on disk (named by
// signature hash, verified and shipped by content SHA-256 exactly like
// traces), so later invocations skip even the single warmup leg.
//
// Correctness never depends on a checkpoint: the engine's determinism
// guarantee makes a restored run byte-identical to a straight one, and
// every consumer (local backend, remote worker) falls back to the straight
// run when a snapshot is missing, corrupt or version-skewed.

// WarmupKey returns the hex SHA-256 of o's warmup signature: the identity
// of the warmup leg the run needs. Jobs with equal keys can fork from one
// checkpoint. It returns an error for jobs without a warmup region (there
// is nothing to share) or whose trace file is unreadable.
func WarmupKey(o engine.Options) (string, error) {
	o = o.Normalized()
	if o.Warmup == 0 {
		return "", fmt.Errorf("experiments: run has no warmup region")
	}
	sig, err := o.WarmupSignature()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(sig))
	return hex.EncodeToString(sum[:]), nil
}

// checkpointRef locates one warmup snapshot: where it lives on this
// machine and what its content hash is (the identity remote workers
// resolve against their own -trace-dir indexes).
type checkpointRef struct {
	path string
	sha  string
}

// checkpointStore manages the on-disk warmup snapshot cache: one
// <WarmupKey>.ckpt file per warmup-equivalence group.
type checkpointStore struct{ dir string }

func (c checkpointStore) pathFor(key string) string {
	return filepath.Join(c.dir, key+".ckpt")
}

// ensure returns the checkpoint for o's warmup group, running the warmup
// leg and writing the snapshot if no cached one exists.
func (c checkpointStore) ensure(ctx context.Context, o engine.Options) (checkpointRef, error) {
	key, err := WarmupKey(o)
	if err != nil {
		return checkpointRef{}, err
	}
	path := c.pathFor(key)
	if sha := trace.ContentSHA(path); sha != "" {
		return checkpointRef{path: path, sha: sha}, nil
	}
	data, err := runWarmupLeg(ctx, o)
	if err != nil {
		return checkpointRef{}, err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return checkpointRef{}, err
	}
	if err := engine.WriteSnapshot(path, data); err != nil {
		return checkpointRef{}, err
	}
	sum := sha256.Sum256(data)
	return checkpointRef{path: path, sha: hex.EncodeToString(sum[:])}, nil
}

// runWarmupLeg executes one warmup region to its barrier and serializes the
// machine. For the default (shared) mode the leg's prefetcher specs are
// neutralized — the warmup runs with prefetching disabled anyway, so one
// leg serves every spec variant; under WarmupPF the specs are part of the
// group identity and stay.
func runWarmupLeg(ctx context.Context, o engine.Options) ([]byte, error) {
	if !o.WarmupPF {
		o.L2PF = prefetch.Spec{Name: "none"}
		o.L1PF = prefetch.Spec{Name: "none"}
	}
	s, err := engine.New(o)
	if err != nil {
		return nil, err
	}
	if err := s.RunWarmup(ctx); err != nil {
		return nil, err
	}
	return s.Checkpoint()
}

// checkpointDir resolves where warmup snapshots live: the configured
// directory, a "checkpoints" subdirectory of the result cache, or — as a
// last resort — a private temporary directory for this Runner. The
// fallback is deliberately fresh and 0700 rather than a fixed world-shared
// path: Restore trusts any snapshot whose signature matches, so a
// predictable shared directory would let another local user pre-plant
// forged machine state. Sharing snapshots across invocations needs
// CacheDir or CheckpointDir — long-lived callers should set one of them,
// since the fallback directory lives until something removes it
// (cmd/experiments creates and removes its own instead).
func (r *Runner) checkpointDir() string {
	if r.CheckpointDir != "" {
		return r.CheckpointDir
	}
	if r.CacheDir != "" {
		return filepath.Join(r.CacheDir, "checkpoints")
	}
	r.ckptTmpOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bopsim-checkpoints-")
		if err != nil {
			r.logf("  checkpoint dir: %v; warmup sharing disabled\n", err)
			return
		}
		r.ckptTmp = dir
	})
	return r.ckptTmp
}

// ckptResolver lazily creates one checkpoint per warmup-equivalence group,
// on first demand from a dispatch slot. Laziness is the point: the first
// job of a group pays its group's warmup leg (or finds it cached), jobs of
// the same group wait on that leg only, and jobs of other groups keep the
// remaining slots busy — there is no global barrier stalling the whole
// sweep behind the slowest leg. Warmup legs always execute locally (they
// are the artifacts remote workers fork from), bounded to the local CPU
// count so a wide remote fleet cannot oversubscribe the coordinator.
type ckptResolver struct {
	store  checkpointStore
	sem    chan struct{}
	logf   func(format string, args ...any)
	mu     sync.Mutex
	groups map[string]*ckptEntry
}

type ckptEntry struct {
	once sync.Once
	ref  checkpointRef
	ok   bool
}

// checkpointResolver returns the Runner's lazy resolver, or nil when
// checkpointing is off or no snapshot directory could be resolved.
func (r *Runner) checkpointResolver() *ckptResolver {
	if !r.Checkpoint {
		return nil
	}
	dir := r.checkpointDir()
	if dir == "" {
		return nil
	}
	return &ckptResolver{
		store:  checkpointStore{dir: dir},
		sem:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		logf:   r.logf,
		groups: make(map[string]*ckptEntry),
	}
}

// resolve returns o's group checkpoint, running the warmup leg on first
// demand. A group whose leg fails resolves to false: its jobs run
// straight, and the real error surfaces there.
func (c *ckptResolver) resolve(o engine.Options) (checkpointRef, bool) {
	key, err := WarmupKey(o)
	if err != nil {
		return checkpointRef{}, false // no warmup region or unreadable trace
	}
	c.mu.Lock()
	e := c.groups[key]
	if e == nil {
		e = &ckptEntry{}
		c.groups[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		c.sem <- struct{}{}
		defer func() { <-c.sem }()
		ref, err := c.store.ensure(context.Background(), o)
		if err != nil {
			c.logf("  warmup leg %.12s failed (%v); group runs without checkpoint\n", key, err)
			return
		}
		e.ref, e.ok = ref, true
		c.logf("  warmup %.12s ready (%s)\n", key, filepath.Base(ref.path))
	})
	return e.ref, e.ok
}
