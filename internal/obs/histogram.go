package obs

import (
	"math/bits"
	"sync/atomic"
)

// numBuckets is the fixed bucket count: bucket 0 holds the value 0 and
// bucket k (1 ≤ k ≤ 64) holds values in [2^(k-1), 2^k). 64 buckets
// cover the whole non-negative int64 range, so Observe never needs a
// bounds check beyond clamping negatives.
const numBuckets = 65

// Histogram is a lock-free histogram over non-negative int64 values
// (nanoseconds, tuple counts, bytes) with fixed log2-scale buckets.
// Observe is a single atomic add per field, so it is safe on hot paths
// under concurrent readers (Query) and the race detector. Reads
// (Snapshot) are not atomic across fields — a snapshot taken during
// concurrent observation may be off by in-flight observations, which is
// fine for monitoring.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// bucketOf maps a value to its bucket index: 0 → 0, v → bits.Len64(v).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLo returns the inclusive lower bound of bucket i.
func BucketLo(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << (i - 1)
}

// BucketHi returns the exclusive upper bound of bucket i.
func BucketHi(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return int64(1)<<62 + (int64(1)<<62 - 1) // avoid overflowing int64
	}
	return int64(1) << i
}

// Observe records one value. Negative values are clamped to zero (they
// cannot occur for durations or sizes; clamping keeps the bucket math
// total).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveN records n observations of the same value in one shot
// (Scrape rebuilds each runtime/metrics histogram's buckets with
// this). Negative values clamp to zero like Observe; n == 0 is a no-op.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(n)
	h.count.Add(int64(n))
	h.sum.Add(v * int64(n))
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1)
// from the bucket boundaries: the exclusive upper bound of the bucket
// containing the q-th observation, clamped to the observed maximum. The
// estimate is within one power of two of the true value.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := 0; i < numBuckets; i++ {
		seen += int64(h.buckets[i].Load())
		if seen > rank {
			hi := BucketHi(i)
			if m := h.max.Load(); m < hi {
				return m
			}
			return hi
		}
	}
	return h.max.Load()
}

// Buckets returns the non-empty buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i := 0; i < numBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, Bucket{Lo: BucketLo(i), Hi: BucketHi(i), N: n})
		}
	}
	return out
}

// Bucket is one non-empty histogram bucket: values in [Lo, Hi) were
// observed N times.
type Bucket struct {
	Lo int64  `json:"lo"`
	Hi int64  `json:"hi"`
	N  uint64 `json:"n"`
}
