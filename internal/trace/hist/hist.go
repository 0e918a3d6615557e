// Package hist provides a fixed-size, log-bucketed latency histogram and
// its Snapshot, the one record of a latency population in this repository.
//
// A Snapshot carries count, sum, sum of squares, min, max and buckets, so
// it answers the mean and jitter of Figures 3, 4 and 7 exactly and every
// quantile to the bucket resolution, and it merges across clients,
// windows and processes. The workload generators and figures record round
// trips into a Histogram, the trace package registers named histograms
// next to its counters so /metrics can expose quantile summaries, and the
// observability plane's windows are Snapshots. The package sits below all
// of them (it imports nothing from versadep), which is what lets them
// share one implementation without an import cycle.
//
// The bucket layout is log-linear: values below 2^subBits land in exact
// unit buckets; above that, each power-of-two octave is split into
// 2^subBits equal sub-buckets, bounding the relative quantile error at
// 1/2^subBits (12.5%) while keeping the whole histogram at a few KB of
// atomic counters. Recording is lock-free (atomic adds plus CAS loops for
// the sum of squares and min/max) and allocates nothing, so it is safe on
// the invoke hot path.
package hist

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
)

// subBits is the number of linear sub-divisions per octave, as a power of
// two. 3 bits = 8 sub-buckets = at most 12.5% relative quantile error.
const subBits = 3

// nBuckets covers the full non-negative int64 range: 2^subBits exact unit
// buckets plus 2^subBits sub-buckets for each octave from subBits through
// 62 (the top octave of a non-negative int64).
const nBuckets = (63-subBits)*(1<<subBits) + (1 << subBits)

// Histogram is a concurrent log-bucketed histogram of non-negative int64
// observations (negative values are clamped to zero). The zero value is
// ready to use; a nil *Histogram is a no-op, mirroring trace.Counter's
// nil-safety so call sites need no "is tracing on" gate.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// sumSq holds the float64 bits of the sum of squared observations.
	sumSq atomic.Uint64
	// min and max store observation+1 so that zero means "unset" while a
	// genuine 0 observation remains representable.
	minP1   atomic.Int64
	maxP1   atomic.Int64
	buckets [nBuckets]atomic.Int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 1<<subBits {
		return int(v)
	}
	octave := bits.Len64(uint64(v)) - 1
	sub := int((v >> uint(octave-subBits)) & (1<<subBits - 1))
	return (octave-subBits+1)<<subBits + sub
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	g := i >> subBits // octave group, 1-based above the linear range
	sub := int64(i & (1<<subBits - 1))
	return (1<<subBits + sub) << uint(g-1)
}

// bucketHigh returns the largest value mapping to bucket i.
func bucketHigh(i int) int64 {
	if i >= nBuckets-1 {
		return 1<<63 - 1
	}
	return bucketLow(i+1) - 1
}

// Observe records one value. Negative values count as zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.addSumSq(float64(v) * float64(v))
	h.buckets[bucketIndex(v)].Add(1)
	h.widen(v, v)
}

// AddSnapshot folds a previously captured snapshot (typically from
// another client or process) into the live histogram.
func (h *Histogram) AddSnapshot(s Snapshot) {
	if h == nil || s.Count == 0 {
		return
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	h.addSumSq(s.SumSq)
	for _, b := range s.Buckets {
		if b.Index >= 0 && b.Index < nBuckets {
			h.buckets[b.Index].Add(b.Count)
		}
	}
	h.widen(s.Min, s.Max)
}

// addSumSq adds d to the sum of squares, a float64 kept as bits.
func (h *Histogram) addSumSq(d float64) {
	for {
		cur := h.sumSq.Load()
		if h.sumSq.CompareAndSwap(cur, math.Float64bits(math.Float64frombits(cur)+d)) {
			return
		}
	}
}

// widen lowers the recorded min to lo and raises the recorded max to hi
// where they extend the range.
func (h *Histogram) widen(lo, hi int64) {
	for {
		cur := h.minP1.Load()
		if cur != 0 && cur <= lo+1 || h.minP1.CompareAndSwap(cur, lo+1) {
			break
		}
	}
	for {
		cur := h.maxP1.Load()
		if cur >= hi+1 || h.maxP1.CompareAndSwap(cur, hi+1) {
			break
		}
	}
}

// Count returns the number of observations (zero on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (zero on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min returns the smallest observation, or zero when empty.
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	if v := h.minP1.Load(); v > 0 {
		return v - 1
	}
	return 0
}

// Max returns the largest observation, or zero when empty.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	if v := h.maxP1.Load(); v > 0 {
		return v - 1
	}
	return 0
}

// Quantile estimates the q-quantile (0..1) of the recorded population,
// accurate to the bucket resolution. Zero on an empty or nil histogram.
func (h *Histogram) Quantile(q float64) int64 {
	return h.Snapshot().Quantile(q)
}

// BucketIndex maps a value to the bucket it lands in (negatives clamp to
// zero) — the inverse of BucketRange.
func BucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	return bucketIndex(v)
}

// BucketRange returns the closed value range [low, high] covered by
// bucket i — the resolution boundary consumers (quantile estimators,
// SLO attainment math) need to reason about partial buckets.
func BucketRange(i int) (low, high int64) {
	if i < 0 {
		return 0, 0
	}
	if i >= nBuckets {
		i = nBuckets - 1
	}
	return bucketLow(i), bucketHigh(i)
}

// Bucket is one non-empty bucket in a Snapshot.
type Bucket struct {
	// Index is the bucket's position in the log-linear layout.
	Index int `json:"i"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"n"`
}

// Snapshot is a latency population: a point-in-time copy of a histogram,
// or a window an owner records into itself with Observe. It is sparse and
// mergeable across windows and processes; the zero value is empty.
type Snapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// SumSq is the sum of squared observations, for StdDev.
	SumSq float64 `json:"sumsq"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	// Buckets lists non-empty buckets in ascending index order.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the current state. A nil histogram yields an empty
// snapshot.
func (h *Histogram) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		SumSq: math.Float64frombits(h.sumSq.Load()),
		Min:   h.Min(),
		Max:   h.Max(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Index: i, Count: n})
		}
	}
	return s
}

// Merge folds other into s (cross-process aggregation). The rebuilt
// bucket list is always freshly allocated: snapshots are routinely
// shallow-copied (a store rollup starts from a copied WindowStat whose
// Buckets header still points at the source's array), so reusing
// s.Buckets' backing array here would rewrite the source snapshot's
// buckets in place.
func (s *Snapshot) Merge(other Snapshot) {
	if other.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min, s.Max = other.Min, other.Max
	} else {
		if other.Min < s.Min {
			s.Min = other.Min
		}
		if other.Max > s.Max {
			s.Max = other.Max
		}
	}
	s.Count += other.Count
	s.Sum += other.Sum
	s.SumSq += other.SumSq
	merged := make(map[int]int64, len(s.Buckets)+len(other.Buckets))
	for _, b := range s.Buckets {
		merged[b.Index] += b.Count
	}
	for _, b := range other.Buckets {
		merged[b.Index] += b.Count
	}
	s.Buckets = make([]Bucket, 0, len(merged))
	for i := 0; i < nBuckets; i++ {
		if n := merged[i]; n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Index: i, Count: n})
		}
	}
}

// Clone returns a deep copy of the snapshot (the bucket list shares no
// backing array with s).
func (s Snapshot) Clone() Snapshot {
	out := s
	if len(s.Buckets) > 0 {
		out.Buckets = append([]Bucket(nil), s.Buckets...)
	}
	return out
}

// Observe records one value into the snapshot: Histogram.Observe for an
// owner that records from a single goroutine, such as a store window.
// Negative values count as zero. It updates the bucket list in place, so
// s must own its bucket array; Clone a shallow copy before observing.
func (s *Snapshot) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
	s.SumSq += float64(v) * float64(v)
	i := bucketIndex(v)
	k, found := slices.BinarySearchFunc(s.Buckets, i, func(b Bucket, i int) int { return b.Index - i })
	if found {
		s.Buckets[k].Count++
		return
	}
	s.Buckets = slices.Insert(s.Buckets, k, Bucket{Index: i, Count: 1})
}

// Sub returns what s holds beyond prev, an earlier snapshot of the same
// histogram: counts, sums and buckets subtract, clamped at zero (a
// restarted node's counters reset; the clamp reads that as a fresh start
// rather than a negative window). Min and Max cannot be taken apart, so
// the difference keeps s's.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Count: s.Count - prev.Count,
		Sum:   max(0, s.Sum-prev.Sum),
		SumSq: max(0, s.SumSq-prev.SumSq),
		Min:   s.Min,
		Max:   s.Max,
	}
	if d.Count <= 0 {
		return Snapshot{}
	}
	pb := make(map[int]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		pb[b.Index] = b.Count
	}
	for _, b := range s.Buckets {
		if n := b.Count - pb[b.Index]; n > 0 {
			d.Buckets = append(d.Buckets, Bucket{Index: b.Index, Count: n})
		}
	}
	return d
}

// Mean returns the average observation, zero when empty.
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// StdDev returns the population standard deviation — the jitter of the
// paper's error bars — from the running sums, zero when empty.
func (s Snapshot) StdDev() float64 {
	if s.Count == 0 {
		return 0
	}
	mean := s.Mean()
	return math.Sqrt(max(0, s.SumSq/float64(s.Count)-mean*mean)) // max: float rounding
}

// Quantile estimates the q-quantile of the snapshot's population: the
// nearest rank ⌈q·n⌉ (at least 1), read as the upper bound of the bucket
// holding it — at most 12.5 % high — clamped to the observed [Min, Max],
// so Quantile(1) == Max and Quantile(0) == Min.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q > 1 {
		q = 1
	}
	target := max(1, int64(math.Ceil(q*float64(s.Count))))
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= target {
			v := bucketHigh(b.Index)
			if v > s.Max {
				v = s.Max
			}
			if v < s.Min {
				v = s.Min
			}
			return v
		}
	}
	return s.Max
}

// FractionBelow estimates the fraction of observations at or below v —
// the SLO-attainment primitive ("what share of requests finished within
// the threshold"). Buckets entirely below v count fully; the bucket
// straddling v contributes linearly by its overlap, so the estimate
// inherits the histogram's ≤12.5% relative resolution. Returns 0 on an
// empty snapshot.
func (s Snapshot) FractionBelow(v int64) float64 {
	if s.Count == 0 {
		return 0
	}
	if v < 0 {
		return 0
	}
	var good float64
	for _, b := range s.Buckets {
		low, high := BucketRange(b.Index)
		switch {
		case high <= v:
			good += float64(b.Count)
		case low > v:
			// past the threshold; later buckets are higher still
		default:
			good += float64(b.Count) * float64(v-low+1) / float64(high-low+1)
		}
	}
	f := good / float64(s.Count)
	if f > 1 {
		f = 1
	}
	return f
}
