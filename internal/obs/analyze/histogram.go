package analyze

import (
	"math/bits"
	"sort"
	"time"
)

// HistBuckets is the fixed bucket count of every histogram: bucket 0
// holds values under 1ms, bucket i (i ≥ 1) holds [1ms·2^(i-1),
// 1ms·2^i), and the last bucket absorbs everything larger (≈ 8.7
// years — effectively unbounded for sim runs).
const HistBuckets = 40

// Histogram is a fixed-bucket log₂-scaled duration histogram. The
// buckets are for display; the raw values are retained (sorted at
// seal time) so P50/P90/P99 are exact nearest-rank percentiles, not
// bucket interpolations. Determinism is inherited from the trace: the
// same run yields the same values, hence the same bytes.
type Histogram struct {
	Name   string
	Counts [HistBuckets]int
	values []time.Duration
	sealed bool
}

// NewHistogram returns an empty histogram carrying the metric name.
func NewHistogram(name string) *Histogram {
	return &Histogram{Name: name}
}

// Add records one value (negative values clamp to zero).
func (h *Histogram) Add(v time.Duration) {
	if v < 0 {
		v = 0
	}
	h.Counts[histBucket(v)]++
	h.values = append(h.values, v)
	h.sealed = false
}

// histBucket maps a value to its bucket index.
func histBucket(v time.Duration) int {
	if v < time.Millisecond {
		return 0
	}
	// bits.Len gives floor(log2)+1; v/1ms ≥ 1 here.
	b := bits.Len64(uint64(v / time.Millisecond))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

func (h *Histogram) seal() {
	sort.Slice(h.values, func(i, j int) bool { return h.values[i] < h.values[j] })
	h.sealed = true
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int { return len(h.values) }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() time.Duration {
	if !h.sealed {
		h.seal()
	}
	if len(h.values) == 0 {
		return 0
	}
	return h.values[0]
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() time.Duration {
	if !h.sealed {
		h.seal()
	}
	if len(h.values) == 0 {
		return 0
	}
	return h.values[len(h.values)-1]
}

// Percentile returns the exact nearest-rank percentile: the smallest
// recorded value v such that at least p% of values are ≤ v. Returns 0
// on an empty histogram.
func (h *Histogram) Percentile(p float64) time.Duration {
	if !h.sealed {
		h.seal()
	}
	n := len(h.values)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return h.values[0]
	}
	if p >= 100 {
		return h.values[n-1]
	}
	rank := p100ceil(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return h.values[rank-1]
}

// p100ceil computes ceil(p·n/100) in a way that is exact for the
// whole-number percentiles SLOs use (p50/p90/p99), avoiding float
// artifacts like 0.29·100 ≠ 29.
func p100ceil(p float64, n int) int {
	if ip := int(p); float64(ip) == p {
		// integer percentile: pure integer ceil
		return (ip*n + 99) / 100
	}
	r := p * float64(n) / 100
	rank := int(r)
	if float64(rank) < r {
		rank++
	}
	return rank
}

// P50 is Percentile(50).
func (h *Histogram) P50() time.Duration { return h.Percentile(50) }

// P90 is Percentile(90).
func (h *Histogram) P90() time.Duration { return h.Percentile(90) }

// P99 is Percentile(99).
func (h *Histogram) P99() time.Duration { return h.Percentile(99) }
