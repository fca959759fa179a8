package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bopsim/internal/engine"
)

// This file is the cache's trust anchor: VerifyCache re-executes a sample
// of stored entries and diffs the fresh result against the stored one.
// Simulations are deterministic, so any divergence means the cache is
// stale relative to the current simulator (a behavioural change shipped
// without a resultCacheVersion bump) — or, for entries that arrived over
// the distrib wire, that a worker computed something this binary would
// not. `bosim -verify` is the CLI face.

// VerifyReport summarizes one VerifyCache pass.
type VerifyReport struct {
	// Entries is how many schema-compatible entries the directory holds.
	Entries int
	// Checked is how many sampled entries were re-executed.
	Checked int
	// Mismatched counts checked entries whose fresh result differs from
	// the stored one (a re-execution error counts as a mismatch: the
	// stored entry claims a result the simulator can no longer produce).
	Mismatched int
	// Skipped counts files that were corrupt or on a different schema
	// version (a loader would re-execute these anyway, so they are not
	// trust failures).
	Skipped int
	// Orphaned counts entries whose filename no longer matches the hash
	// of their stored options — e.g. a trace edited in place moved its
	// runs to a new key, leaving the old entry unreachable. No lookup
	// can ever return them, so they are dead weight for EvictCache, not
	// trust failures.
	Orphaned int
}

// VerifyCache re-executes up to sample entries of the disk cache at dir
// and diffs each fresh result against the stored one, logging one line
// per check (and a detailed line per mismatch) to log. sample <= 0 checks
// every entry. Sampling is deterministic in seed, so a cron job verifying
// a shared cache covers different entries run to run only by changing the
// seed. The cache is not modified; deleting stale entries is the
// operator's call.
func VerifyCache(dir string, sample int, seed uint64, log io.Writer) (VerifyReport, error) {
	if log == nil {
		log = io.Discard
	}
	var rep VerifyReport
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return rep, err
	}
	sort.Strings(files)
	type loaded struct {
		path  string
		entry CacheEntry
	}
	var entries []loaded
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			rep.Skipped++
			continue
		}
		var e CacheEntry
		if err := json.Unmarshal(b, &e); err != nil || e.Version != resultCacheVersion {
			rep.Skipped++
			continue
		}
		// An entry only vouches for the key it is filed under. If the
		// stored options no longer hash to the filename (trace edited in
		// place, unreadable trace on this machine), no lookup can reach
		// it — re-executing would compare against a run nobody asked for.
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		if OptionsHash(e.Options) != name {
			rep.Orphaned++
			fmt.Fprintf(log, "orphaned %s: stored options hash elsewhere (trace changed or missing?)\n", filepath.Base(f))
			continue
		}
		entries = append(entries, loaded{path: f, entry: e})
	}
	rep.Entries = len(entries)
	if sample > 0 && sample < len(entries) {
		rng := rand.New(rand.NewSource(int64(seed)))
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		entries = entries[:sample]
		// Keep the report order stable regardless of the shuffle.
		sort.Slice(entries, func(i, j int) bool { return entries[i].path < entries[j].path })
	}
	for _, l := range entries {
		rep.Checked++
		name := filepath.Base(l.path)
		fresh, err := engine.Run(l.entry.Options)
		if err != nil {
			rep.Mismatched++
			fmt.Fprintf(log, "MISMATCH %s: stored result exists but re-execution failed: %v\n", name, err)
			continue
		}
		if diff := resultDiff(l.entry.Result, fresh); diff != "" {
			rep.Mismatched++
			fmt.Fprintf(log, "MISMATCH %s (%s): %s\n", name, describeOptions(l.entry.Options), diff)
			continue
		}
		fmt.Fprintf(log, "ok       %s (%s) IPC=%.3f\n", name, describeOptions(l.entry.Options), fresh.IPC)
	}
	return rep, nil
}

// resultDiff compares two results via their canonical JSON encodings
// (covering every nested counter, not just headline metrics) and renders
// a short human-readable summary of the first divergence, or "" when
// identical.
func resultDiff(stored, fresh engine.Result) string {
	sb, err1 := json.Marshal(stored)
	fb, err2 := json.Marshal(fresh)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("results not comparable (%v, %v)", err1, err2)
	}
	if string(sb) == string(fb) {
		return ""
	}
	if stored.IPC != fresh.IPC {
		return fmt.Sprintf("IPC stored=%.6f fresh=%.6f", stored.IPC, fresh.IPC)
	}
	if stored.Cycles != fresh.Cycles {
		return fmt.Sprintf("cycles stored=%d fresh=%d", stored.Cycles, fresh.Cycles)
	}
	return fmt.Sprintf("results differ (stored %d bytes, fresh %d bytes of JSON)", len(sb), len(fb))
}
