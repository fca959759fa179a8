package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// warmed returns small options with a warmup region.
func warmed(workload string) engine.Options {
	o := engine.DefaultOptions(workload)
	o.Instructions = 20_000
	o.Warmup = 20_000
	return o
}

// resultJSON renders a result for byte comparison.
func resultJSON(t *testing.T, r engine.Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runStraight runs o start to finish without checkpointing.
func runStraight(t *testing.T, o engine.Options) engine.Result {
	t.Helper()
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runCheckpointed runs o's warmup, checkpoints, restores into a fresh
// machine and completes the measured region there.
func runCheckpointed(t *testing.T, o engine.Options) (engine.Result, []byte) {
	t.Helper()
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWarmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.AtBarrier() {
		t.Fatal("RunWarmup did not leave the simulation at the barrier")
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := engine.Restore(snap, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := restored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r, snap
}

// TestGoldenDeterminismPerPrefetcher is the trust anchor of the checkpoint
// feature: for every registered L2 prefetcher, running warmup -> Checkpoint
// -> Restore -> run produces byte-identical results to an uncheckpointed
// straight run. WarmupPF keeps the prefetcher live through the warmup, so
// the test exercises each prefetcher's StateCodec round trip, the DL1
// stride prefetcher's included.
func TestGoldenDeterminismPerPrefetcher(t *testing.T) {
	for _, name := range prefetch.L2Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := warmed("433.milc")
			o.L2PF = prefetch.Spec{Name: name}
			o.WarmupPF = true
			straight := resultJSON(t, runStraight(t, o))
			ckpt, _ := runCheckpointed(t, o)
			if got := resultJSON(t, ckpt); !bytes.Equal(got, straight) {
				t.Errorf("checkpointed run diverged from straight run\nstraight: %s\nrestored: %s", straight, got)
			}
		})
	}
}

// TestHeterogeneousWorkloadsCheckpointRoundTrip checks per-core workload
// specs survive checkpoint/restore byte-exactly: a two-core run with
// different generators on each core (gups driving core 0, a parameterized
// stream on core 1, then a mix combinator) produces identical measurements
// straight and checkpointed — every generator kind's cursor codec round
// trips through the snapshot.
func TestHeterogeneousWorkloadsCheckpointRoundTrip(t *testing.T) {
	for _, ws := range [][]trace.Spec{
		{trace.MustSpec("gups:footprint=4mb"), trace.MustSpec("stream:stride=128")},
		{trace.MustSpec("mix:gens=stream+pchase,weights=2+1"), trace.MustSpec("pchase:footprint=1mb")},
	} {
		o := warmed("")
		o.Workloads = ws
		o.Cores = 2
		o.Instructions = 10_000
		o.Warmup = 10_000
		o.L2PF = prefetch.Spec{Name: "bo"}
		o.WarmupPF = true
		straight := resultJSON(t, runStraight(t, o))
		ckpt, _ := runCheckpointed(t, o)
		if got := resultJSON(t, ckpt); !bytes.Equal(got, straight) {
			t.Errorf("heterogeneous %v checkpointed run diverged\nstraight: %s\nrestored: %s", ws, straight, got)
		}
	}
}

// TestSharedWarmupDeterminism checks the default (shareable) warmup mode:
// prefetchers disabled during warmup, installed cold at the barrier. One
// snapshot taken from a warmup leg with L2PF=none must restore every
// variant to the same state the variant's own straight run reaches.
func TestSharedWarmupDeterminism(t *testing.T) {
	legOpts := warmed("459.GemsFDTD")
	legOpts.L2PF = prefetch.Spec{Name: "none"}
	leg, err := engine.New(legOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := leg.RunWarmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := leg.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{
		"bo", "sbp", "multi", "offset:d=4",
		// Parameterized meta-prefetchers: nested quoted sub-specs must share
		// the none-warmed snapshot like any other variant.
		"duel:a=bo,b=offset.d~4,period=512",
		"adapt:base=multi.offsets~1+2+4+8,window=1024",
	} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			o := warmed("459.GemsFDTD")
			o.L2PF = prefetch.MustSpec(spec)
			straight := resultJSON(t, runStraight(t, o))
			restored, err := engine.Restore(snap, o)
			if err != nil {
				t.Fatal(err)
			}
			r, err := restored.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := resultJSON(t, r); !bytes.Equal(got, straight) {
				t.Errorf("variant restored from shared warmup diverged\nstraight: %s\nrestored: %s", straight, got)
			}
		})
	}
}

// TestMulticoreCheckpointDeterminism covers the 2-core configuration (core
// 1 runs the thrasher) and the 4MB page size.
func TestMulticoreCheckpointDeterminism(t *testing.T) {
	o := warmed("462.libquantum")
	o.Cores = 2
	o.Page = mem.Page4M
	o.L2PF = prefetch.Spec{Name: "bo"}
	straight := resultJSON(t, runStraight(t, o))
	ckpt, _ := runCheckpointed(t, o)
	if got := resultJSON(t, ckpt); !bytes.Equal(got, straight) {
		t.Errorf("2-core checkpointed run diverged\nstraight: %s\nrestored: %s", straight, got)
	}
}

// TestCheckpointByteStable checks the snapshot encoding is deterministic:
// checkpointing the same barrier twice yields identical bytes, and a
// restored simulation re-checkpoints to those same bytes (encode -> decode
// -> encode stability, the property content addressing relies on).
func TestCheckpointByteStable(t *testing.T) {
	o := warmed("470.lbm")
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWarmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	a, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("checkpointing the same barrier twice produced different bytes")
	}
	restored, err := engine.Restore(a, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := restored.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("restore -> checkpoint is not byte-stable")
	}
}

// TestCheckpointOnlyAtBarrier checks a mid-run machine refuses to
// checkpoint instead of serializing in-flight state.
func TestCheckpointOnlyAtBarrier(t *testing.T) {
	o := warmed("416.gamess")
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Error("checkpoint before the barrier succeeded")
	}
	if err := s.RunWarmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Error("checkpoint after measured cycles succeeded")
	}
}

// TestRestoreRejectsMismatchedOptions checks the warmup-signature guard:
// a snapshot cannot restore into options whose warmup leg differs.
func TestRestoreRejectsMismatchedOptions(t *testing.T) {
	o := warmed("416.gamess")
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWarmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*engine.Options){
		"workload": func(o *engine.Options) { o.Workloads = []trace.Spec{{Name: "470.lbm"}} },
		"seed":     func(o *engine.Options) { o.Seed = 99 },
		"warmup":   func(o *engine.Options) { o.Warmup = 10_000 },
		"cores":    func(o *engine.Options) { o.Cores = 2 },
		"page":     func(o *engine.Options) { o.Page = mem.Page4M },
		"l3":       func(o *engine.Options) { o.L3Policy = "LRU" },
		"warmuppf": func(o *engine.Options) { o.WarmupPF = true },
	}
	for name, mutate := range cases {
		bad := o
		mutate(&bad)
		if _, err := engine.Restore(snap, bad); err == nil {
			t.Errorf("restore into options with different %s succeeded", name)
		}
	}
	// Options differing only in measured-region knobs restore fine.
	ok := o
	ok.Instructions = 5_000
	ok.L2PF = prefetch.Spec{Name: "sbp"}
	if _, err := engine.Restore(snap, ok); err != nil {
		t.Errorf("restore into measured-region variant failed: %v", err)
	}
}

// smallSnapshot returns short-run options and the checkpoint taken at their
// warmup barrier.
func smallSnapshot(tb testing.TB) (engine.Options, []byte) {
	tb.Helper()
	o := engine.DefaultOptions("416.gamess")
	o.Instructions = 2_000
	o.Warmup = 2_000
	s, err := engine.New(o)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.RunWarmup(context.Background()); err != nil {
		tb.Fatal(err)
	}
	snap, err := s.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return o, snap
}

// FuzzRestore feeds arbitrary bytes to Restore: corrupted, truncated or
// version-skewed snapshots must return an error — never panic, and never
// hand back a simulation built from partial state.
func FuzzRestore(f *testing.F) {
	o, snap := smallSnapshot(f)
	f.Add(snap)
	f.Add([]byte{})
	f.Add([]byte(snapshotMagicForFuzz))
	f.Add(snap[:len(snap)/2])
	// Version skew: flip the version field.
	skew := append([]byte(nil), snap...)
	skew[8]++
	f.Add(skew)
	for _, c := range corruptTLBSnapshots(f, snap) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := engine.Restore(data, o)
		if err != nil && restored != nil {
			t.Fatal("Restore returned both a simulation and an error")
		}
		if err != nil {
			return
		}
		// A successful restore must be a fully valid barrier-state machine:
		// a few measured steps must not panic either.
		if _, err := restored.Step(64); err != nil {
			t.Fatalf("restored simulation errored immediately: %v", err)
		}
	})
}

const snapshotMagicForFuzz = "BOCKPT01"

type tlbSnapshotCase struct {
	name    string
	data    []byte
	wantErr bool
}

// corruptTLBSnapshots re-encodes snap with edited core-0 TLB state: a
// duplicate VPN, a level holding more entries than it has, a stamp ahead of
// its level's clock, and tied stamps. Each decodes cleanly, so only the TLB
// restore can tell them apart. Tied stamps never come out of a run but are
// well defined (the lowest slot is evicted first), so that one restores.
func corruptTLBSnapshots(tb testing.TB, snap []byte) []tlbSnapshotCase {
	tb.Helper()
	var cases []tlbSnapshotCase
	add := func(name string, wantErr bool, edit func(*uncore.State)) {
		data, err := engine.EditSnapshotUncore(snap, func(st *uncore.State) {
			if len(st.TLBs) == 0 || len(st.TLBs[0].DTLB1.VPNs) < 2 || len(st.TLBs[0].TLB2.VPNs) < 2 {
				tb.Fatal("warmup left fewer than two translations in a TLB level")
			}
			edit(st)
		})
		if err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, tlbSnapshotCase{name, data, wantErr})
	}
	add("duplicate VPN", true, func(st *uncore.State) {
		l := &st.TLBs[0].TLB2
		l.VPNs[1] = l.VPNs[0]
	})
	add("more entries than the level holds", true, func(st *uncore.State) {
		l := &st.TLBs[0].DTLB1
		for v := uint64(1 << 40); len(l.VPNs) <= 64; v++ {
			l.VPNs = append(l.VPNs, v)
			l.Stamps = append(l.Stamps, 0)
		}
	})
	add("stamp ahead of clock", true, func(st *uncore.State) {
		l := &st.TLBs[0].TLB2
		l.Stamps[0] = l.Clock + 1
	})
	add("tied stamps", false, func(st *uncore.State) {
		l := &st.TLBs[0].DTLB1
		l.Stamps[1] = l.Stamps[0]
	})
	return cases
}

// TestRestoreCorruptTLBState checks the verdict on each corrupt-TLB
// snapshot: an error and no simulation for the impossible states, a
// runnable simulation for tied stamps.
func TestRestoreCorruptTLBState(t *testing.T) {
	o, snap := smallSnapshot(t)
	for _, c := range corruptTLBSnapshots(t, snap) {
		restored, err := engine.Restore(c.data, o)
		switch {
		case c.wantErr && (err == nil || restored != nil):
			t.Errorf("%s: Restore = (%v, %v), want an error and no simulation", c.name, restored != nil, err)
		case !c.wantErr && err != nil:
			t.Errorf("%s: Restore failed: %v", c.name, err)
		case !c.wantErr:
			if _, err := restored.Run(context.Background()); err != nil {
				t.Errorf("%s: restored simulation failed: %v", c.name, err)
			}
		}
	}
}
