package tlb

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"bopsim/internal/mem"
)

// TestTLBStateRoundTrip warms a TLB hierarchy, saves its state, checks the
// encoding is byte-stable, restores into a fresh hierarchy and verifies it
// behaves identically from there on.
func TestTLBStateRoundTrip(t *testing.T) {
	h := New(mem.Page4K)
	for i := 0; i < 2000; i++ {
		h.Access(mem.Addr(i*7) << 12)
	}
	st := h.SaveState()

	var a bytes.Buffer
	if err := gob.NewEncoder(&a).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := gob.NewDecoder(bytes.NewReader(a.Bytes())).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("TLB state encode -> decode -> encode is not byte-stable")
	}

	fresh := New(mem.Page4K)
	if err := fresh.RestoreState(decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.SaveState(), st) {
		t.Fatal("restored TLB state differs from saved state")
	}
	// Identical access streams must produce identical latencies (hits,
	// misses and walk decisions all depend on the restored LRU state).
	for i := 0; i < 3000; i++ {
		va := mem.Addr(i*13) << 12
		if l1, l2 := h.Access(va), fresh.Access(va); l1 != l2 {
			t.Fatalf("access %d: latency %d on original, %d on restored", i, l1, l2)
		}
	}
	if h.Walks != fresh.Walks || h.DTLB1Misses() != fresh.DTLB1Misses() || h.TLB2Misses() != fresh.TLB2Misses() {
		t.Fatal("counters diverged under identical traffic after restore")
	}
}

// TestTLBRestoreRejectsBadState checks malformed level states are refused
// and leave the hierarchy exactly as it was. Each bad level is paired with
// a valid one, so restoring level by level would leave it half-replaced.
func TestTLBRestoreRejectsBadState(t *testing.T) {
	h := NewWithSizes(mem.Page4K, 4, 8)
	for i := 0; i < 20; i++ {
		h.Access(mem.Addr(i) << 12)
	}
	before := h.SaveState()
	good := LevelState{VPNs: []uint64{1, 2}, Stamps: []uint64{1, 2}, Clock: 2}
	oversized := LevelState{VPNs: make([]uint64, 9), Stamps: make([]uint64, 9)}
	for i := range oversized.VPNs {
		oversized.VPNs[i] = uint64(i)
	}
	for name, bad := range map[string]State{
		"oversized DTLB1":      {DTLB1: oversized, TLB2: good},
		"oversized TLB2":       {DTLB1: good, TLB2: oversized},
		"ragged":               {DTLB1: good, TLB2: LevelState{VPNs: []uint64{1, 2}, Stamps: []uint64{1}}},
		"duplicate VPN":        {DTLB1: good, TLB2: LevelState{VPNs: []uint64{5, 5}, Stamps: []uint64{1, 2}, Clock: 2}},
		"stamp ahead of clock": {DTLB1: good, TLB2: LevelState{VPNs: []uint64{1, 2}, Stamps: []uint64{1, 9}, Clock: 2}},
	} {
		bad.Walks = 99
		if err := h.RestoreState(bad); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
		if !reflect.DeepEqual(h.SaveState(), before) {
			t.Fatalf("%s: failed restore changed the hierarchy", name)
		}
	}
}

// TestTLBResetStats checks the barrier reset clears counters but keeps
// residency.
func TestTLBResetStats(t *testing.T) {
	h := New(mem.Page4K)
	for i := 0; i < 100; i++ {
		h.Access(mem.Addr(i) << 12)
	}
	if h.DTLB1Misses() == 0 {
		t.Fatal("warmup produced no misses")
	}
	h.ResetStats()
	if h.Walks != 0 || h.DTLB1Misses() != 0 || h.TLB2Misses() != 0 {
		t.Fatal("ResetStats left counters non-zero")
	}
	// Residency kept: re-touching a recently used page still hits (page 99
	// is the most recent of the warmup sweep, so it survived the DTLB1's
	// 64-entry LRU).
	before := h.DTLB1Misses()
	h.Access(mem.Addr(99) << 12)
	if h.DTLB1Misses() != before {
		t.Fatal("ResetStats dropped TLB residency")
	}
}
