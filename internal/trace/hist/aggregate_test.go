package hist

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// TestQuantileNearestRank pins the rank Quantile reads: the nearest rank
// ⌈q·n⌉, at least 1. Every sample below is the upper bound of its own
// bucket (or below 8, where buckets are exact), so the estimate is the
// sample at that rank.
func TestQuantileNearestRank(t *testing.T) {
	of := func(vs ...int64) Snapshot {
		var s Snapshot
		for _, v := range vs {
			s.Observe(v)
		}
		return s
	}
	smallThenLarge := make([]int64, 0, 97)
	for range 96 {
		smallThenLarge = append(smallThenLarge, 1)
	}
	smallThenLarge = append(smallThenLarge, 1_000_000)
	var highs []int64 // 400 samples; the one at rank r is bucketHigh(r-1)
	for i := range 400 {
		highs = append(highs, bucketHigh(i))
	}
	for _, c := range []struct {
		name string
		s    Snapshot
		q    float64
		want int64
	}{
		{"median of three", of(1, 2, 3), 0.5, 2},
		{"p99 of 96 small and 1 large", of(smallThenLarge...), 0.99, 1_000_000},
		{"p99 of 400", of(highs...), 0.99, bucketHigh(395)},
		{"one sample at q=0.01", of(12345), 0.01, 12345},
		{"one sample at q=0.5", of(12345), 0.5, 12345},
		{"one sample at q=0.99", of(12345), 0.99, 12345},
		{"one sample at q=1", of(12345), 1, 12345},
	} {
		if got := c.s.Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%g) = %d, want %d", c.name, c.q, got, c.want)
		}
	}
}

// TestSnapshotMeanAndJitter checks the summary Figures 3, 4 and 7 read.
func TestSnapshotMeanAndJitter(t *testing.T) {
	var s Snapshot
	if s.Count != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Quantile(0.99) != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	const us = 1000
	for _, d := range []int64{100 * us, 200 * us, 300 * us} {
		s.Observe(d)
	}
	if s.Count != 3 || s.Mean() != 200*us || s.Min != 100*us || s.Max != 300*us {
		t.Fatalf("count/mean/min/max = %d/%v/%d/%d", s.Count, s.Mean(), s.Min, s.Max)
	}
	// stddev of {100,200,300} = sqrt(20000/3)µs ≈ 81.6µs
	if j := s.StdDev(); j < 81*us || j > 83*us {
		t.Fatalf("jitter = %v", j)
	}
	if p := s.Quantile(0.99); p != 300*us {
		t.Fatalf("p99 = %d", p)
	}
}

func TestJitterZeroForConstant(t *testing.T) {
	var h Histogram
	for range 10 {
		h.Observe(500_000)
	}
	if j := h.Snapshot().StdDev(); j != 0 {
		t.Fatalf("jitter = %v, want 0", j)
	}
}

// TestQuantileProperty: whatever the population, the p99 estimate lies
// between the true nearest-rank sample and the max, and the mean between
// min and max.
func TestQuantileProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var s Snapshot
		vs := make([]int64, len(raw))
		for i, r := range raw {
			vs[i] = int64(r)
			s.Observe(vs[i])
		}
		slices.Sort(vs)
		exact := vs[int(math.Ceil(0.99*float64(len(vs))))-1]
		p99 := s.Quantile(0.99)
		return exact <= p99 && p99 <= s.Max && float64(s.Min) <= s.Mean() && s.Mean() <= float64(s.Max) && s.Max == vs[len(vs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramObserveZeroAllocs holds the hot-path promise: recording a
// round trip, sum of squares included, allocates nothing.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	var h Histogram
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v = v*7 + 3 }); n != 0 {
		t.Fatalf("Histogram.Observe allocated %v times per call", n)
	}
}

// part is one slice of a population together with what the monitor that
// used to own the figures' latency summary computed over it: a running
// float sum and sum of squares, added sample by sample.
type part struct {
	samples   []int64
	snap      Snapshot
	fsum, fsq float64
}

// TestAggregateOracle records random populations, split into parts
// through each recording path and merged in random order, and checks the
// aggregate against the samples themselves. Count, Sum, Min, Max and the
// buckets must be exact. Mean and StdDev must be bit-equal to the float
// arithmetic the figures used before this aggregate carried them: a float
// sum and sum of squares per recorder, recorders merged by adding their
// sums, then mean = sum/n and jitter = sqrt(max(0, sumsq/n − mean²)).
func TestAggregateOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	past32 := 0
	for trial := range 200 {
		n := 1 + rng.IntN(400)
		samples := make([]int64, n)
		for i := range samples {
			samples[i] = rng.Int64N(1<<40 + 1)
		}
		// Cut into k contiguous parts (some may be empty).
		k := 1 + rng.IntN(6)
		cuts := []int{0, n}
		for range k - 1 {
			cuts = append(cuts, rng.IntN(n+1))
		}
		slices.Sort(cuts)
		parts := make([]part, k)
		for i := range parts {
			p := &parts[i]
			p.samples = samples[cuts[i]:cuts[i+1]]
			for _, v := range p.samples {
				p.fsum += float64(v)
				p.fsq += float64(v) * float64(v)
			}
			switch i % 3 {
			case 0:
				var h Histogram
				for _, v := range p.samples {
					h.Observe(v)
				}
				p.snap = h.Snapshot()
			case 1:
				for _, v := range p.samples {
					p.snap.Observe(v)
				}
			case 2:
				var s Snapshot
				for _, v := range p.samples {
					s.Observe(v)
				}
				var h Histogram
				h.AddSnapshot(s)
				p.snap = h.Snapshot()
			}
		}

		var all Snapshot
		var count int64
		var fsum, fsq float64
		for _, i := range rng.Perm(k) {
			all.Merge(parts[i].snap)
			if len(parts[i].samples) > 0 {
				count += int64(len(parts[i].samples))
				fsum += parts[i].fsum
				fsq += parts[i].fsq
			}
		}

		var sum int64
		byBucket := map[int]int64{}
		for _, v := range samples {
			sum += v
			byBucket[bucketIndex(v)]++
		}
		var want []Bucket
		for i := range nBuckets {
			if c := byBucket[i]; c > 0 {
				want = append(want, Bucket{Index: i, Count: c})
			}
		}
		if all.Count != int64(n) || all.Sum != sum || all.Min != slices.Min(samples) || all.Max != slices.Max(samples) {
			t.Fatalf("trial %d: count/sum/min/max = %d/%d/%d/%d, want %d/%d/%d/%d", trial,
				all.Count, all.Sum, all.Min, all.Max, n, sum, slices.Min(samples), slices.Max(samples))
		}
		if !reflect.DeepEqual(all.Buckets, want) {
			t.Fatalf("trial %d: buckets differ from the samples'", trial)
		}
		if sum > 1<<32 {
			past32++
		}

		mean := fsum / float64(count)
		variance := fsq/float64(count) - mean*mean
		if variance < 0 {
			variance = 0
		}
		if math.Float64bits(all.Mean()) != math.Float64bits(mean) {
			t.Fatalf("trial %d: Mean = %v, oracle %v", trial, all.Mean(), mean)
		}
		if math.Float64bits(all.StdDev()) != math.Float64bits(math.Sqrt(variance)) {
			t.Fatalf("trial %d: StdDev = %v, oracle %v", trial, all.StdDev(), math.Sqrt(variance))
		}

		if k >= 2 {
			a, b := parts[0].snap, parts[1].snap
			m := a.Clone()
			m.Merge(b)
			if d := m.Sub(b); !slices.Equal(d.Buckets, a.Buckets) {
				t.Fatalf("trial %d: (a merge b) sub b = %v, want a's buckets %v", trial, d.Buckets, a.Buckets)
			}
		}
	}
	if past32 < 100 {
		t.Fatalf("only %d of 200 populations summed past 2^32", past32)
	}
}
