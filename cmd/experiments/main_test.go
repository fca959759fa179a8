package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bopsim/internal/experiments"
)

// writeEntry stores a cache entry of the given schema version under dir.
func writeEntry(t *testing.T, dir, name string, version int) {
	t.Helper()
	body := fmt.Sprintf(`{"version": %d, "options": {}, "result": {"IPC": 1.5}}`, version)
	if err := os.WriteFile(filepath.Join(dir, name+".json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRefuseStaleCacheRejectsOldSchemas(t *testing.T) {
	for _, version := range []int{1, 2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			writeEntry(t, dir, "current", experiments.SchemaVersion())
			writeEntry(t, dir, "stale", version)
			err := refuseStaleCache(dir)
			if err == nil {
				t.Fatal("a cache holding an old-schema entry was accepted")
			}
			msg := err.Error()
			for _, want := range []string{filepath.Join(dir, "stale.json"), "delete " + dir, "rerun"} {
				if !strings.Contains(msg, want) {
					t.Errorf("error %q does not mention %q", msg, want)
				}
			}
			// The refusal leaves the cache as it found it.
			if _, err := os.Stat(filepath.Join(dir, "stale.json")); err != nil {
				t.Errorf("stale entry touched: %v", err)
			}
		})
	}
}

func TestRefuseStaleCacheAcceptsCurrentCaches(t *testing.T) {
	current := t.TempDir()
	writeEntry(t, current, "a", experiments.SchemaVersion())
	writeEntry(t, current, "b", experiments.SchemaVersion())
	for name, dir := range map[string]string{
		"current schema only": current,
		"empty":               t.TempDir(),
		"missing":             filepath.Join(t.TempDir(), "absent"),
		"no cache":            "",
	} {
		if err := refuseStaleCache(dir); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
