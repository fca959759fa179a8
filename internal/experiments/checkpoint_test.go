package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/prefetch"
	"bopsim/internal/stats"
	"bopsim/internal/trace"
)

// renderTable returns a table's exact output bytes.
func renderTable(t *testing.T, tb *stats.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	tb.Render(&buf)
	return buf.Bytes()
}

// TestCheckpointedSweepMatchesSerial is the scheduler-level determinism
// gate: a sweep executed with warmup sharing (grouped warmup legs +
// checkpoint forking) must render byte-identical tables to the same sweep
// executed straight.
func TestCheckpointedSweepMatchesSerial(t *testing.T) {
	serial := tinyRunner()
	serial.Instructions = 20_000
	serial.Warmup = 15_000
	want := renderTable(t, serial.Fig6())

	ckpt := tinyRunner()
	ckpt.Instructions = 20_000
	ckpt.Warmup = 15_000
	ckpt.Checkpoint = true
	ckpt.CheckpointDir = t.TempDir()
	got := renderTable(t, ckpt.Fig6())

	if !bytes.Equal(got, want) {
		t.Errorf("checkpointed sweep rendered different bytes\nserial:\n%s\ncheckpointed:\n%s", want, got)
	}
	// The sharing actually happened: one snapshot per (benchmark, config)
	// group on disk.
	entries, err := os.ReadDir(ckpt.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("%d snapshots on disk, want 2 (one per benchmark)", len(entries))
	}
}

// TestCheckpointReuseAcrossRunners checks a second sweep over the same
// directory reuses the cached snapshots instead of re-running warmup legs.
func TestCheckpointReuseAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Runner {
		r := tinyRunner()
		r.Benchmarks = []trace.Spec{{Name: "416.gamess"}}
		r.Instructions = 10_000
		r.Warmup = 10_000
		r.Checkpoint = true
		r.CheckpointDir = dir
		return r
	}
	mk().Fig6()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no snapshots written (%v)", err)
	}
	info, err := entries[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	before := info.ModTime()

	mk().Fig6()
	entries2, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	info2, err := entries2[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	if !info2.ModTime().Equal(before) {
		t.Error("second sweep rewrote a cached snapshot instead of reusing it")
	}
}

// TestWarmupKeyExcludesSweptSpecs checks the grouping key: prefetcher
// variants share one warmup leg; anything shaping the warmed machine does
// not.
func TestWarmupKeyExcludesSweptSpecs(t *testing.T) {
	base := engine.DefaultOptions("433.milc")
	base.Warmup = 10_000
	baseKey, err := WarmupKey(base)
	if err != nil {
		t.Fatal(err)
	}

	shared := map[string]func(*engine.Options){
		"L2PF":         func(o *engine.Options) { o.L2PF = prefetch.Spec{Name: "bo"} },
		"L1PF":         func(o *engine.Options) { o.L1PF = prefetch.Spec{Name: "none"} },
		"Instructions": func(o *engine.Options) { o.Instructions = 77 },
		"MaxCycles":    func(o *engine.Options) { o.MaxCycles = 123_456_789 },
	}
	for field, mutate := range shared {
		o := base
		mutate(&o)
		if k, err := WarmupKey(o); err != nil || k != baseKey {
			t.Errorf("changing %s splits the warmup group (key %.12s vs %.12s, err %v)", field, k, baseKey, err)
		}
	}
	splitting := map[string]func(*engine.Options){
		"Workload": func(o *engine.Options) { o.Workloads = []trace.Spec{{Name: "470.lbm"}} },
		"Seed":     func(o *engine.Options) { o.Seed = 9 },
		"Cores":    func(o *engine.Options) { o.Cores = 2 },
		"Warmup":   func(o *engine.Options) { o.Warmup = 5_000 },
		"WarmupPF": func(o *engine.Options) { o.WarmupPF = true },
		"L3Policy": func(o *engine.Options) { o.L3Policy = "LRU" },
	}
	for field, mutate := range splitting {
		o := base
		mutate(&o)
		if k, err := WarmupKey(o); err != nil || k == baseKey {
			t.Errorf("changing %s does not split the warmup group (err %v)", field, err)
		}
	}
	// Under WarmupPF the prefetcher state crosses the barrier, so the
	// specs become part of the group identity.
	a, b := base, base
	a.WarmupPF, b.WarmupPF = true, true
	b.L2PF = prefetch.Spec{Name: "bo"}
	ka, errA := WarmupKey(a)
	kb, errB := WarmupKey(b)
	if errA != nil || errB != nil || ka == kb {
		t.Errorf("WarmupPF variants with different specs share a key (%v %v)", errA, errB)
	}
	// No warmup region: nothing to share.
	cold := engine.DefaultOptions("433.milc")
	if _, err := WarmupKey(cold); err == nil {
		t.Error("WarmupKey accepted a run without a warmup region")
	}
}

// TestWedgeSurfacesThroughRunJobs drives deliberately stalled simulations
// through the scheduler: the engine's wedge detection must surface as a
// RunJobs error, and multiple wedges must all appear in the errors.Join
// aggregation.
func TestWedgeSurfacesThroughRunJobs(t *testing.T) {
	r := tinyRunner()
	wedgeOpts := func(wl string) engine.Options {
		o := engine.DefaultOptions(wl)
		o.Instructions = 1_000_000
		// Far too few cycles to retire a million instructions: the engine
		// declares a wedge when MaxCycles pass without completion.
		o.MaxCycles = 500
		return o
	}
	err := r.RunJobs([]engine.Options{wedgeOpts("416.gamess"), wedgeOpts("456.hmmer")})
	if err == nil {
		t.Fatal("RunJobs with wedged simulations returned no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "wedged") {
		t.Errorf("error does not mention the wedge: %v", err)
	}
	for _, wl := range []string{"416.gamess", "456.hmmer"} {
		if !strings.Contains(msg, wl) {
			t.Errorf("aggregated error is missing the %s wedge: %v", wl, err)
		}
	}
	// A wedge during the warmup region surfaces identically.
	warm := wedgeOpts("416.gamess")
	warm.Warmup = 1_000_000
	warm.Seed = 2 // distinct cache key from the run above
	if err := r.RunJobs([]engine.Options{warm}); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Errorf("warmup wedge did not surface through RunJobs: %v", err)
	}
}
