package main

import "time"

// Host-time metrics are normalized for the host's momentary speed. On a
// shared machine the same operation's host time drifts by more than 1.5x
// within seconds as co-tenants come and go, far beyond any bound a
// regression check could use. The benchmark therefore times a fixed
// reference kernel before and after every operation and rescales the
// operation's host time to a reference host on which the kernel takes
// calRef: normalized = measured * calRef / mean(kernel before, kernel after).
// The kernel is part of the benchmark, so no change to the simulator can
// move it.
const calRef = 25 * time.Millisecond

// Calibration kernel geometry: a 16-way set-associative table of 2 MB tags
// and 2 MB LRU stamps, larger than the private caches of common server CPUs
// as the simulator's own cache models are.
const (
	calSets   = 1 << 14
	calWays   = 16
	calProbes = 400_000
)

var calSink uint64

// calibrate runs the reference kernel — a set-associative tag table probed
// and LRU-updated by a pseudo-random line stream, with data-dependent
// branches, shaped like the simulator's cache and TLB probes — and returns
// its host time.
func calibrate() time.Duration {
	calTags := make([]uint64, calSets*calWays)
	calStamps := make([]uint64, calSets*calWays)
	x := uint64(0x9E3779B97F4A7C15)
	t0 := time.Now()
	for i := uint64(1); i <= calProbes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := x % (calSets * calWays * 3)
		base := int(line%calSets) * calWays
		hit := false
		victim, oldest := base, ^uint64(0)
		for w := base; w < base+calWays; w++ {
			if calTags[w] == line {
				calStamps[w] = i
				hit = true
				break
			}
			if calStamps[w] < oldest {
				victim, oldest = w, calStamps[w]
			}
		}
		if !hit {
			calTags[victim], calStamps[victim] = line, i
		}
	}
	d := time.Since(t0)
	calSink += calTags[x%uint64(len(calTags))]
	return d
}

// speedometer brackets consecutive operations with calibration runs.
type speedometer struct {
	before  time.Duration
	samples []float64 // calibration time around each operation, seconds
}

func newSpeedometer() *speedometer { return &speedometer{before: calibrate()} }

// scale calibrates again and returns the factor converting the host time
// of the operation that ran since the previous calibration into
// reference-host time.
func (s *speedometer) scale() float64 {
	after := calibrate()
	around := (s.before + after) / 2
	s.before = after
	s.samples = append(s.samples, around.Seconds())
	return calRef.Seconds() / around.Seconds()
}
