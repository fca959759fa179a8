package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestEvictCacheRemovesOldestPastBudget(t *testing.T) {
	dir := t.TempDir()
	// Three entries of ~1KB each, with distinct mtimes, oldest first.
	payload := make([]byte, 1024)
	for i, name := range []string{"old", "mid", "new"} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		mtime := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	removed, freed, err := EvictCache(dir, 2*1024+512)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != 1024 {
		t.Errorf("removed %d entries / %d bytes, want 1 / 1024", removed, freed)
	}
	if _, err := os.Stat(filepath.Join(dir, "old.json")); !os.IsNotExist(err) {
		t.Error("oldest entry survived eviction")
	}
	for _, name := range []string{"mid", "new"} {
		if _, err := os.Stat(filepath.Join(dir, name+".json")); err != nil {
			t.Errorf("%s entry evicted, should have been kept", name)
		}
	}
	// Zero budget disables eviction entirely.
	if removed, _, err := EvictCache(dir, 0); err != nil || removed != 0 {
		t.Errorf("disabled eviction removed %d (err %v)", removed, err)
	}
}
