package tlb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"bopsim/internal/rng"
)

// refLevel is the straightforward true-LRU level the indexed tlbLevel
// replaces: a map from VPN to slot and a linear scan for the minimum stamp
// on eviction. It is kept as the reference the differential tests compare
// against, so its code stays as simple as possible.
type refLevel struct {
	entries int
	slot    map[uint64]int
	vpns    []uint64
	stamps  []uint64
	clock   uint64
	hits    uint64
	misses  uint64
}

func newRefLevel(entries int) *refLevel {
	return &refLevel{entries: entries, slot: make(map[uint64]int, entries)}
}

func (t *refLevel) access(vpn uint64) bool {
	t.clock++
	if i, ok := t.slot[vpn]; ok {
		t.stamps[i] = t.clock
		t.hits++
		return true
	}
	t.misses++
	t.insert(vpn)
	return false
}

func (t *refLevel) probe(vpn uint64) bool {
	if i, ok := t.slot[vpn]; ok {
		t.clock++
		t.stamps[i] = t.clock
		return true
	}
	return false
}

func (t *refLevel) insert(vpn uint64) {
	if len(t.vpns) >= t.entries {
		victim, best := 0, ^uint64(0)
		for i, s := range t.stamps {
			if s < best {
				victim, best = i, s
			}
		}
		delete(t.slot, t.vpns[victim])
		t.vpns[victim] = vpn
		t.stamps[victim] = t.clock
		t.slot[vpn] = victim
		return
	}
	t.vpns = append(t.vpns, vpn)
	t.stamps = append(t.stamps, t.clock)
	t.slot[vpn] = len(t.vpns) - 1
}

func (t *refLevel) saveState() LevelState {
	vpns := append([]uint64(nil), t.vpns...)
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	st := LevelState{VPNs: vpns, Stamps: make([]uint64, len(vpns)),
		Clock: t.clock, Hits: t.hits, Misses: t.misses}
	for i, v := range vpns {
		st.Stamps[i] = t.stamps[t.slot[v]]
	}
	return st
}

func (t *refLevel) restoreState(st LevelState) {
	t.slot = make(map[uint64]int, t.entries)
	for i, v := range st.VPNs {
		t.slot[v] = i
	}
	t.vpns = append(t.vpns[:0], st.VPNs...)
	t.stamps = append(t.stamps[:0], st.Stamps...)
	t.clock, t.hits, t.misses = st.Clock, st.Hits, st.Misses
}

func gobBytes(t *testing.T, st LevelState) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(st); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sameState fails unless both levels serialize to identical states and
// identical gob bytes.
func sameState(t *testing.T, step int, got *tlbLevel, want *refLevel) LevelState {
	t.Helper()
	g, w := got.saveState(), want.saveState()
	if !reflect.DeepEqual(g, w) || !bytes.Equal(gobBytes(t, g), gobBytes(t, w)) {
		t.Fatalf("step %d: SaveState differs from the reference:\n got %+v\nwant %+v", step, g, w)
	}
	return g
}

// TestLevelMatchesReference drives the indexed level and the reference
// with identical seeded access/probe streams, over working sets smaller and
// larger than the baseline DTLB1 (64) and TLB2 (512), and round-trips both
// through SaveState/RestoreState mid-stream. Every step must agree on hit
// or miss, and the serialized states must be identical throughout.
func TestLevelMatchesReference(t *testing.T) {
	const steps = 20_000
	for _, entries := range []int{64, 512} {
		for _, working := range []int{40, 300, 700, 4000} {
			t.Run(fmt.Sprintf("entries%d/working%d", entries, working), func(t *testing.T) {
				r := rng.New(uint64(entries*1_000_003 + working))
				got, want := newTLBLevel(entries), newRefLevel(entries)
				// Half the traffic goes to a hot eighth of the working set,
				// so recency matters and the LRU order is exercised rather
				// than degenerating into round-robin.
				hot := working/8 + 1
				for i := 0; i < steps; i++ {
					vpn := uint64(r.Intn(working))
					if r.OneIn(2) {
						vpn = uint64(r.Intn(hot))
					}
					vpn = vpn*0x1000 + 7 // spread VPNs beyond small integers
					var g, w bool
					op := "access"
					if r.OneIn(5) {
						op = "probe"
						g, w = got.probe(vpn), want.probe(vpn)
					} else {
						g, w = got.access(vpn), want.access(vpn)
					}
					if g != w {
						t.Fatalf("step %d: %s(%#x) hit=%v, reference hit=%v", i, op, vpn, g, w)
					}
					if i%(steps/4) == steps/8 {
						st := sameState(t, i, got, want)
						var err error
						if got, err = restoreLevel(entries, st); err != nil {
							t.Fatalf("step %d: restore: %v", i, err)
						}
						want.restoreState(st)
					}
				}
				if got.hits != want.hits || got.misses != want.misses || got.clock != want.clock {
					t.Fatalf("counters (hits %d misses %d clock %d), reference (%d %d %d)",
						got.hits, got.misses, got.clock, want.hits, want.misses, want.clock)
				}
				sameState(t, steps, got, want)
			})
		}
	}
}

// TestRestoreTiedStampsEvictLowestSlot pins the tie-break on a restored
// state whose stamps tie: the reference's scan evicts the lowest slot among
// the minimum stamps, and slots follow state order, so misses evict VPN
// 0x20, 0x30, 0x60 (stamp 1, in slot order), then 0x10 and 0x50 (stamp 3).
func TestRestoreTiedStampsEvictLowestSlot(t *testing.T) {
	st := LevelState{
		VPNs:   []uint64{0x10, 0x20, 0x30, 0x40, 0x50, 0x60},
		Stamps: []uint64{3, 1, 1, 7, 3, 1},
		Clock:  7,
	}
	got, err := restoreLevel(len(st.VPNs), st)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefLevel(len(st.VPNs))
	want.restoreState(st)
	for i, evicted := range []uint64{0x20, 0x30, 0x60, 0x10, 0x50} {
		vpn := uint64(0x100 * (i + 1))
		if got.access(vpn) || want.access(vpn) {
			t.Fatalf("miss %d: fresh VPN %#x hit", i, vpn)
		}
		if got.find(evicted) >= 0 {
			t.Fatalf("miss %d: VPN %#x still resident, want it evicted", i, evicted)
		}
		sameState(t, i, got, want)
	}
}
