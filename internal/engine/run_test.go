package engine_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// End-to-end runs through the one-shot engine.Run: each test builds a full
// machine from Options and checks one behaviour of the paper's model.

func TestRunBasic(t *testing.T) {
	r, err := engine.Run(quick("416.gamess"))
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Errorf("IPC = %.2f out of range", r.IPC)
	}
	if r.Instructions < 60_000 {
		t.Errorf("retired %d instructions, want >= 60000", r.Instructions)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := engine.Run(quick("403.gcc"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Run(quick("403.gcc"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.IPC != b.IPC {
		t.Errorf("non-deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestAllPrefetchersRun(t *testing.T) {
	// Every *registered* L2 prefetcher must run end to end — including any
	// added purely by registration, like "multi".
	names := prefetch.L2Names()
	if len(names) < 6 {
		t.Fatalf("only %d registered L2 prefetchers: %v", len(names), names)
	}
	for _, name := range names {
		o := quick("437.leslie3d")
		o.L2PF = prefetch.Spec{Name: name}
		if _, err := engine.Run(o); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// A parameterized spec spelled as a string works the same way.
	o := quick("437.leslie3d")
	o.L2PF = prefetch.MustSpec("offset:d=4")
	if _, err := engine.Run(o); err != nil {
		t.Errorf("offset:d=4: %v", err)
	}
}

func TestBOResultFieldsPopulated(t *testing.T) {
	o := quick("462.libquantum")
	o.L2PF = prefetch.Spec{Name: "bo"}
	o.Page = mem.Page4M
	o.Instructions = 150_000
	r, err := engine.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.BO == nil {
		t.Fatal("BO stats missing")
	}
	if r.FinalBOOffset <= 0 {
		t.Errorf("FinalBOOffset = %d", r.FinalBOOffset)
	}
}

func TestMultiCoreInterferenceSlowsCore0(t *testing.T) {
	// The cache-thrashing micro-benchmark on other cores must reduce core
	// 0's IPC (Figure 2's effect).
	solo := quick("450.soplex")
	solo.Page = mem.Page4M
	r1, err := engine.Run(solo)
	if err != nil {
		t.Fatal(err)
	}
	shared := solo
	shared.Cores = 4
	r4, err := engine.Run(shared)
	if err != nil {
		t.Fatal(err)
	}
	if r4.IPC >= r1.IPC {
		t.Errorf("4-core IPC %.3f not below 1-core IPC %.3f", r4.IPC, r1.IPC)
	}
}

func TestLargePagesHelpTLBHeavyWorkload(t *testing.T) {
	small := quick("429.mcf")
	r4k, err := engine.Run(small)
	if err != nil {
		t.Fatal(err)
	}
	big := small
	big.Page = mem.Page4M
	r4m, err := engine.Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if r4m.Hier.TLBWalks >= r4k.Hier.TLBWalks {
		t.Errorf("4MB pages walked %d times vs %d with 4KB", r4m.Hier.TLBWalks, r4k.Hier.TLBWalks)
	}
	if r4m.IPC < r4k.IPC {
		t.Errorf("4MB-page IPC %.3f below 4KB-page IPC %.3f on a TLB-heavy workload", r4m.IPC, r4k.IPC)
	}
}

func TestBOBeatsNextLineOnStream(t *testing.T) {
	// The headline result on a timeliness-sensitive workload.
	base := quick("462.libquantum")
	base.Page = mem.Page4M
	base.Instructions = 200_000
	rNL, err := engine.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	bo := base
	bo.L2PF = prefetch.Spec{Name: "bo"}
	rBO, err := engine.Run(bo)
	if err != nil {
		t.Fatal(err)
	}
	if rBO.IPC <= rNL.IPC*1.05 {
		t.Errorf("BO IPC %.3f not meaningfully above next-line %.3f", rBO.IPC, rNL.IPC)
	}
}

func TestInvalidOptions(t *testing.T) {
	o := quick("416.gamess")
	o.Cores = 5
	if _, err := engine.Run(o); err == nil {
		t.Error("5 cores accepted")
	}
	o = quick("does-not-exist")
	if _, err := engine.Run(o); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestDRAMTrafficReported(t *testing.T) {
	o := quick("470.lbm")
	r, err := engine.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.DRAMAccessesPerKI <= 0 {
		t.Error("no DRAM traffic reported for a memory-heavy workload")
	}
	if r.DRAM.Reads == 0 {
		t.Error("DRAM read stats empty")
	}
}

func TestTraceReplayMatchesGenerator(t *testing.T) {
	// Recording a workload and replaying it must give identical timing.
	path := filepath.Join(t.TempDir(), "w.trace")
	const n = 60_000
	gen, err := trace.NewWorkload("456.hmmer", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Record more than we simulate so the trace never wraps.
	if err := trace.WriteTraceFile(path, gen, 2*n); err != nil {
		t.Fatal(err)
	}
	direct := quick("456.hmmer")
	direct.Instructions = n
	rDirect, err := engine.Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	replay := direct
	replay.Workloads = []trace.Spec{trace.FileSpec(path)}
	rReplay, err := engine.Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if rDirect.Cycles != rReplay.Cycles {
		t.Errorf("replay took %d cycles, direct %d", rReplay.Cycles, rDirect.Cycles)
	}
}

func TestFig8ShapeOffsetPeaks(t *testing.T) {
	// The milc stand-in's Figure 8 signature: an offset that is a multiple
	// of 32 must beat its non-multiple neighbour.
	run := func(d int) float64 {
		o := quick("433.milc")
		o.Page = mem.Page4M
		o.Instructions = 150_000
		o.L2PF = prefetch.Spec{Name: "offset"}.With("d", fmt.Sprint(d))
		r, err := engine.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return r.IPC
	}
	peak := run(64)
	off := run(61)
	if peak <= off {
		t.Errorf("offset 64 (%.3f IPC) did not beat offset 61 (%.3f IPC)", peak, off)
	}
}
