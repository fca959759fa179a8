// Package tlb models the data-TLB hierarchy of the baseline
// microarchitecture (Table 1: DTLB1 64 entries, shared TLB2 512 entries).
// TLB behaviour is what differentiates the paper's 4KB-page and 4MB-page
// baselines (Figure 2): with large pages nearly every access hits the DTLB1,
// while 4KB pages make large-working-set benchmarks pay frequent TLB2
// lookups and page walks.
//
// The L2 prefetchers never consult the TLB (paper section 5.6); the DL1
// stride prefetcher does, and drops prefetches that miss in the TLB2
// (section 5.5).
package tlb

import (
	"fmt"
	"sort"

	"bopsim/internal/mem"
)

// Latencies added to a memory access on the corresponding TLB outcome, in
// core cycles. A DTLB1 hit is folded into the DL1 access latency.
const (
	TLB2HitPenalty  = 7
	PageWalkPenalty = 50
)

// tlbLevel is one fully-associative translation buffer with true LRU. The
// resident set lives in dense vpns/stamps slot arrays. A fixed-capacity
// open-addressed index maps a VPN to its slot, and an intrusive doubly
// linked list threads the slots in recency order (head = LRU, tail = MRU),
// so hits, misses and evictions are all O(1) and allocation-free.
//
// stamps and clock remain the level's serialized LRU order: every stamp
// write follows a clock increment, so the list always runs in stamp order.
// Stamps are therefore unique in any level built by accesses; a restored
// state with tied stamps orders the ties by slot index.
type tlbLevel struct {
	entries int
	vpns    []uint64 // slot -> VPN
	stamps  []uint64 // slot -> clock value of its last use
	clock   uint64
	hits    uint64
	misses  uint64

	index      []int32 // VPN hash -> slot+1 (0 = empty), linear probing
	shift      uint    // 64 - log2(len(index)), for Fibonacci hashing
	prev, next []int32 // per-slot LRU list links; -1 ends the list
	head, tail int32   // LRU and MRU slots; -1 while the level is empty
}

func newTLBLevel(entries int) *tlbLevel {
	// At most half the index is occupied, so every probe chain ends at an
	// empty bucket within a few steps.
	size, bits := 1, uint(0)
	for size < 2*entries {
		size, bits = size<<1, bits+1
	}
	return &tlbLevel{
		entries: entries,
		vpns:    make([]uint64, 0, entries),
		stamps:  make([]uint64, 0, entries),
		index:   make([]int32, size),
		shift:   64 - bits,
		prev:    make([]int32, entries),
		next:    make([]int32, entries),
		head:    -1,
		tail:    -1,
	}
}

// bucket returns vpn's home bucket in the index.
func (t *tlbLevel) bucket(vpn uint64) int {
	return int((vpn * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding vpn, or -1.
func (t *tlbLevel) find(vpn uint64) int {
	mask := len(t.index) - 1
	for i := t.bucket(vpn); ; i = (i + 1) & mask {
		s := t.index[i]
		if s == 0 {
			return -1
		}
		if t.vpns[s-1] == vpn {
			return int(s - 1)
		}
	}
}

func (t *tlbLevel) indexAdd(vpn uint64, slot int) {
	mask := len(t.index) - 1
	i := t.bucket(vpn)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = int32(slot + 1)
}

// indexRemove drops resident vpn from the index by backward-shift deletion,
// which keeps every probe chain gap-free without tombstones.
func (t *tlbLevel) indexRemove(vpn uint64) {
	mask := len(t.index) - 1
	i := t.bucket(vpn)
	for t.vpns[t.index[i]-1] != vpn {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home bucket
		// lies cyclically in (i, j].
		home := t.bucket(t.vpns[t.index[j]-1])
		if (j-home)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
}

func (t *tlbLevel) unlink(s int32) {
	p, n := t.prev[s], t.next[s]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
}

func (t *tlbLevel) pushMRU(s int32) {
	t.prev[s], t.next[s] = t.tail, -1
	if t.tail >= 0 {
		t.next[t.tail] = s
	} else {
		t.head = s
	}
	t.tail = s
}

// touch stamps slot s with the current clock and makes it MRU.
func (t *tlbLevel) touch(s int) {
	t.stamps[s] = t.clock
	if int32(s) != t.tail {
		t.unlink(int32(s))
		t.pushMRU(int32(s))
	}
}

// access looks up vpn, refreshing LRU state; insert on miss.
func (t *tlbLevel) access(vpn uint64) (hit bool) {
	t.clock++
	if s := t.find(vpn); s >= 0 {
		t.touch(s)
		t.hits++
		return true
	}
	t.misses++
	t.insert(vpn)
	return false
}

// probe looks up vpn without inserting on miss (used by the DL1 stride
// prefetcher's TLB2 check, which drops the prefetch on a miss rather than
// walking the page table).
func (t *tlbLevel) probe(vpn uint64) bool {
	s := t.find(vpn)
	if s < 0 {
		return false
	}
	t.clock++
	t.touch(s)
	return true
}

// insert places vpn, absent from the level, in a free slot or in place of
// the LRU entry.
func (t *tlbLevel) insert(vpn uint64) {
	s := len(t.vpns)
	if s < t.entries {
		t.vpns = append(t.vpns, vpn)
		t.stamps = append(t.stamps, t.clock)
		t.pushMRU(int32(s))
	} else {
		s = int(t.head)
		t.indexRemove(t.vpns[s])
		t.vpns[s] = vpn
		t.touch(s)
	}
	t.indexAdd(vpn, s)
}

// Hierarchy is a per-core DTLB1 backed by a TLB2.
type Hierarchy struct {
	page  mem.PageSize
	dtlb1 *tlbLevel
	tlb2  *tlbLevel
	// Walks counts page-table walks (TLB2 misses on demand accesses).
	Walks uint64
}

// New returns a TLB hierarchy for the given page size with the baseline
// entry counts (DTLB1 64, TLB2 512).
func New(page mem.PageSize) *Hierarchy {
	return &Hierarchy{page: page, dtlb1: newTLBLevel(64), tlb2: newTLBLevel(512)}
}

// NewWithSizes returns a TLB hierarchy with custom entry counts, for tests
// and sensitivity studies.
func NewWithSizes(page mem.PageSize, dtlb1, tlb2 int) *Hierarchy {
	return &Hierarchy{page: page, dtlb1: newTLBLevel(dtlb1), tlb2: newTLBLevel(tlb2)}
}

// Access translates the virtual address of a demand load/store and returns
// the extra latency in cycles caused by TLB misses (0 on a DTLB1 hit).
func (h *Hierarchy) Access(va mem.Addr) uint64 {
	vpn := h.page.PageOf(va)
	if h.dtlb1.access(vpn) {
		return 0
	}
	if h.tlb2.access(vpn) {
		return TLB2HitPenalty
	}
	h.Walks++
	return TLB2HitPenalty + PageWalkPenalty
}

// ProbeTLB2 reports whether the page of va is present in the TLB2 without
// allocating on miss. The DL1 stride prefetcher uses this and drops the
// prefetch when it returns false.
func (h *Hierarchy) ProbeTLB2(va mem.Addr) bool {
	return h.tlb2.probe(h.page.PageOf(va))
}

// DTLB1Misses returns the number of DTLB1 misses observed.
func (h *Hierarchy) DTLB1Misses() uint64 { return h.dtlb1.misses }

// TLB2Misses returns the number of TLB2 misses observed.
func (h *Hierarchy) TLB2Misses() uint64 { return h.tlb2.misses }

// LevelState is one TLB level's serialized contents: the resident VPNs with
// their LRU stamps (sorted by VPN so encoding is byte-stable and
// independent of slot placement) plus the level's clock and counters. The
// VPN index and LRU list are not serialized; restoring rebuilds them from
// the VPNs and stamps.
type LevelState struct {
	VPNs   []uint64
	Stamps []uint64
	Clock  uint64
	Hits   uint64
	Misses uint64
}

// State is the serialized state of one TLB hierarchy.
type State struct {
	DTLB1 LevelState
	TLB2  LevelState
	Walks uint64
}

func (t *tlbLevel) saveState() LevelState {
	vpns := append([]uint64(nil), t.vpns...)
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	st := LevelState{VPNs: vpns, Stamps: make([]uint64, len(vpns)),
		Clock: t.clock, Hits: t.hits, Misses: t.misses}
	for i, v := range vpns {
		st.Stamps[i] = t.stamps[t.find(v)]
	}
	return st
}

// restoreLevel builds a level of the given capacity holding st. VPNs take
// slots in state order, and the LRU list is rebuilt in (stamp, slot) order,
// so tied stamps evict the lowest slot first. A stamp ahead of the clock
// cannot come from a saved level (every stamp is a past clock value) and is
// refused, as is any other state the level cannot hold.
func restoreLevel(entries int, st LevelState) (*tlbLevel, error) {
	if len(st.VPNs) != len(st.Stamps) {
		return nil, fmt.Errorf("tlb: %d VPNs but %d stamps", len(st.VPNs), len(st.Stamps))
	}
	if len(st.VPNs) > entries {
		return nil, fmt.Errorf("tlb: state has %d entries, level holds %d", len(st.VPNs), entries)
	}
	t := newTLBLevel(entries)
	for i, v := range st.VPNs {
		if t.find(v) >= 0 {
			return nil, fmt.Errorf("tlb: duplicate VPN %#x in state", v)
		}
		if st.Stamps[i] > st.Clock {
			return nil, fmt.Errorf("tlb: VPN %#x has stamp %d, ahead of clock %d", v, st.Stamps[i], st.Clock)
		}
		t.vpns = append(t.vpns, v)
		t.indexAdd(v, i)
	}
	t.stamps = append(t.stamps, st.Stamps...)
	order := make([]int32, len(t.vpns))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return t.stamps[order[i]] < t.stamps[order[j]] })
	for _, s := range order {
		t.pushMRU(s)
	}
	t.clock, t.hits, t.misses = st.Clock, st.Hits, st.Misses
	return t, nil
}

// SaveState serializes the hierarchy's resident translations and counters.
func (h *Hierarchy) SaveState() State {
	return State{DTLB1: h.dtlb1.saveState(), TLB2: h.tlb2.saveState(), Walks: h.Walks}
}

// RestoreState replaces the hierarchy's state with a previously saved one.
// On error the hierarchy is left unchanged.
func (h *Hierarchy) RestoreState(st State) error {
	dtlb1, err := restoreLevel(h.dtlb1.entries, st.DTLB1)
	if err != nil {
		return fmt.Errorf("DTLB1: %w", err)
	}
	tlb2, err := restoreLevel(h.tlb2.entries, st.TLB2)
	if err != nil {
		return fmt.Errorf("TLB2: %w", err)
	}
	h.dtlb1, h.tlb2, h.Walks = dtlb1, tlb2, st.Walks
	return nil
}

// ResetStats clears the walk and hit/miss counters, keeping the resident
// translations (warmup barrier semantics).
func (h *Hierarchy) ResetStats() {
	h.Walks = 0
	h.dtlb1.hits, h.dtlb1.misses = 0, 0
	h.tlb2.hits, h.tlb2.misses = 0, 0
}
