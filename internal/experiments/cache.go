package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"bopsim/internal/engine"
	"bopsim/internal/trace"
)

// resultCacheVersion is bumped whenever the simulator's behaviour or the
// Options/Result schema changes in a way that invalidates stored results.
//
// v2: Options moved from the closed PrefetcherKind enum (+ FixedOffset/
// BOParams/SBPParams/StridePF escape hatches) to prefetch.Spec fields, and
// TracePath is keyed by trace *content* rather than path.
//
// v3: Options moved from the Workload/TracePath pair to per-core workload
// specs (Options.Workloads); file replays are keyed inside the spec by
// content hash (trace.HashSpec). Entries of older versions are never read;
// cmd/experiments refuses a cache directory that still holds one.
const resultCacheVersion = 3

// OptionsHash returns the canonical cache key of one simulation run: a
// SHA-256 over the JSON encoding of the *normalized* options plus the cache
// schema version. Every option that can change the outcome participates
// (including Seed, the prefetcher specs, MaxCycles and the CPU config), and
// equivalent spellings of the same run — zero values versus explicit
// defaults, specs with spelled-out default parameters — hash identically
// because normalization resolves them first.
//
// Trace replays are keyed by the SHA-256 of the trace file's content, not
// its path: each "file" workload spec is rewritten to its hash form
// (trace.HashSpec), so editing a trace invalidates its cached results, and
// moving or copying one preserves them. An unreadable trace falls back to
// path keying (the simulation will fail with the real error anyway).
func OptionsHash(o engine.Options) string {
	keyed := struct {
		Version int
		Options engine.Options
	}{Version: resultCacheVersion, Options: o.Normalized()}
	// Normalized always reallocates the spec slice, so rewriting entries
	// here never aliases the caller's options.
	for i, w := range keyed.Options.Workloads {
		keyed.Options.Workloads[i] = trace.HashSpec(w)
	}
	b, err := json.Marshal(keyed)
	if err != nil {
		panic(fmt.Sprintf("experiments: options not hashable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// optionsKey is the Runner's cache key. It is the full-options hash, so
// runs differing in any outcome-affecting field never alias.
func optionsKey(o engine.Options) string { return OptionsHash(o) }

// CacheEntry is the on-disk record format: one JSON file per completed
// simulation, named <OptionsHash>.json, self-describing via the stored
// options so a human (or bosim -verify) can see what produced it. It
// doubles as the wire format a distrib worker returns a finished job in —
// the coordinator writes received entries straight into this cache.
//
//bovet:schemalock
type CacheEntry struct {
	Version int            `json:"version"`
	Options engine.Options `json:"options"`
	Result  engine.Result  `json:"result"`
}

// SchemaVersion reports the current result-cache schema version. Remote
// workers refuse jobs from a coordinator on a different schema, since a
// version mismatch means the simulator's behaviour (or the options
// encoding) differs.
func SchemaVersion() int { return resultCacheVersion }

// TraceContentSHA returns the hex SHA-256 of the trace file's content
// (memoized by size+mtime), or "" when the file cannot be read. It is the
// identity trace replays are cache-keyed by, and what a distrib
// coordinator sends instead of a path so workers can resolve their own
// local copy.
func TraceContentSHA(path string) string { return trace.ContentSHA(path) }

// diskCache persists simulation results under one directory.
type diskCache struct{ dir string }

func (c diskCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// load returns the stored result for key, if present and schema-compatible.
func (c diskCache) load(key string) (engine.Result, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return engine.Result{}, false
	}
	var e CacheEntry
	if err := json.Unmarshal(b, &e); err != nil || e.Version != resultCacheVersion {
		return engine.Result{}, false
	}
	return e.Result, true
}

// store writes the result for key atomically (temp file + rename), so a
// concurrent reader never observes a partial entry and an interrupted run
// never corrupts the cache.
func (c diskCache) store(key string, o engine.Options, res engine.Result) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(CacheEntry{resultCacheVersion, o.Normalized(), res}, "", " ")
	if err != nil {
		return err
	}
	tmp := c.path(key) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path(key))
}

// EvictCache is the size-bounded eviction pass: when the cache directory's
// .json entries exceed maxBytes, the oldest entries (by modification time,
// i.e. least recently written) are deleted until the total fits. It returns
// how many entries were removed and how many bytes were freed. A maxBytes
// <= 0 budget disables eviction.
func EvictCache(dir string, maxBytes int64) (removed int, freed int64, err error) {
	if maxBytes <= 0 {
		return 0, 0, nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, 0, err
	}
	type entry struct {
		path  string
		size  int64
		mtime int64
	}
	var entries []entry
	var total int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			continue // raced with another process; skip
		}
		entries = append(entries, entry{path: f, size: st.Size(), mtime: st.ModTime().UnixNano()})
		total += st.Size()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime < entries[j].mtime })
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return removed, freed, err
		}
		total -= e.size
		removed++
		freed += e.size
	}
	return removed, freed, nil
}
