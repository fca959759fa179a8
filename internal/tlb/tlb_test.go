package tlb

import (
	"testing"

	"bopsim/internal/mem"
)

func TestFirstAccessWalks(t *testing.T) {
	h := New(mem.Page4K)
	if lat := h.Access(0x1000); lat != TLB2HitPenalty+PageWalkPenalty {
		t.Errorf("cold access latency = %d, want %d", lat, TLB2HitPenalty+PageWalkPenalty)
	}
	if h.Walks != 1 {
		t.Errorf("Walks = %d, want 1", h.Walks)
	}
}

func TestSecondAccessHitsDTLB1(t *testing.T) {
	h := New(mem.Page4K)
	h.Access(0x1000)
	if lat := h.Access(0x1008); lat != 0 {
		t.Errorf("warm access latency = %d, want 0", lat)
	}
}

func TestDTLB1EvictionFallsBackToTLB2(t *testing.T) {
	h := NewWithSizes(mem.Page4K, 2, 8)
	h.Access(0x1000)
	h.Access(0x2000)
	h.Access(0x3000) // evicts page of 0x1000 from DTLB1 but not TLB2
	if lat := h.Access(0x1000); lat != TLB2HitPenalty {
		t.Errorf("TLB2-hit latency = %d, want %d", lat, TLB2HitPenalty)
	}
}

func TestTrueLRUInDTLB1(t *testing.T) {
	h := NewWithSizes(mem.Page4K, 2, 64)
	h.Access(0x1000)
	h.Access(0x2000)
	h.Access(0x1000) // page 1 is now MRU
	h.Access(0x3000) // should evict page 2
	if lat := h.Access(0x1000); lat != 0 {
		t.Error("MRU page was evicted from DTLB1")
	}
	if lat := h.Access(0x2000); lat == 0 {
		t.Error("LRU page was not evicted from DTLB1")
	}
}

func Test4MBPagesCoverMoreAddresses(t *testing.T) {
	small := New(mem.Page4K)
	big := New(mem.Page4M)
	// Stride through 16MB at 4KB steps: 4096 distinct 4KB pages but only 4
	// distinct 4MB pages.
	for pass := 0; pass < 2; pass++ {
		for a := mem.Addr(0); a < 16<<20; a += 4096 {
			small.Access(a)
			big.Access(a)
		}
	}
	if big.Walks > 4 {
		t.Errorf("4MB pages walked %d times, want <= 4", big.Walks)
	}
	if small.Walks <= big.Walks {
		t.Errorf("4KB walks (%d) not greater than 4MB walks (%d)", small.Walks, big.Walks)
	}
}

func TestProbeTLB2DoesNotAllocate(t *testing.T) {
	h := New(mem.Page4K)
	if h.ProbeTLB2(0x5000) {
		t.Error("probe hit in empty TLB2")
	}
	// Still absent: probe must not allocate.
	if h.ProbeTLB2(0x5000) {
		t.Error("probe allocated an entry")
	}
	h.Access(0x5000)
	if !h.ProbeTLB2(0x5000) {
		t.Error("probe missed after demand access")
	}
}

func TestMissCountersAdvance(t *testing.T) {
	h := New(mem.Page4K)
	h.Access(0x1000)
	h.Access(0x2000)
	h.Access(0x1000)
	if h.DTLB1Misses() != 2 {
		t.Errorf("DTLB1Misses = %d, want 2", h.DTLB1Misses())
	}
	if h.TLB2Misses() != 2 {
		t.Errorf("TLB2Misses = %d, want 2", h.TLB2Misses())
	}
}

// tlb2MissStream returns a generator of page addresses cycling through
// 4096 pages, eight times the TLB2: under LRU every access misses both
// levels and walks, so the eviction path is the one exercised.
func tlb2MissStream() func() mem.Addr {
	page := 0
	return func() mem.Addr {
		page = (page + 1) % 4096
		return mem.Addr(page) << 12
	}
}

func TestAccessTLB2MissZeroAlloc(t *testing.T) {
	h := New(mem.Page4K)
	next := tlb2MissStream()
	for i := 0; i < 10_000; i++ {
		h.Access(next())
	}
	walks := h.Walks
	if avg := testing.AllocsPerRun(2000, func() { h.Access(next()) }); avg != 0 {
		t.Errorf("steady-state TLB2-missing Access allocates %.3f objects/access, want 0", avg)
	}
	if h.Walks-walks != 2001 {
		t.Errorf("stream walked %d times in 2001 accesses, want every access to miss the TLB2", h.Walks-walks)
	}
}

var sinkLatency uint64

// BenchmarkTLBAccess times Hierarchy.Access on a stream whose working set
// exceeds the TLB2, so each access pays a DTLB1 and a TLB2 miss, an
// eviction at both levels and a walk.
func BenchmarkTLBAccess(b *testing.B) {
	h := New(mem.Page4K)
	next := tlb2MissStream()
	for i := 0; i < 10_000; i++ {
		h.Access(next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLatency += h.Access(next())
	}
}
