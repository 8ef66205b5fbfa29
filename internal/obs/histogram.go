package obs

import (
	"math"
	"time"
)

// histFiniteBuckets is the number of finite log buckets: bucket i covers
// durations up to 1µs·2^i, so the ladder spans 1µs .. ~71min before the
// overflow bucket. Fixed buckets make histograms mergeable across
// processes and scrapes, which a window of raw samples is not.
const histFiniteBuckets = 32

// Histogram counts durations in fixed power-of-two log buckets. It is
// full-history (counters never reset) and not safe for concurrent use —
// owners guard it with their own mutex (serve.Metrics does).
type Histogram struct {
	counts [histFiniteBuckets + 1]int64 // +1 = overflow (+Inf)
	count  int64
	sum    float64 // seconds
}

// BucketUpper returns bucket i's upper bound in seconds
// (math.Inf(1) for the overflow bucket).
func BucketUpper(i int) float64 {
	if i >= histFiniteBuckets {
		return math.Inf(1)
	}
	return 1e-6 * float64(uint64(1)<<i)
}

// Observe records one duration. Negative durations are clamped to zero
// (they can only arise from clock retrograde between two reads).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := uint64(d / time.Microsecond)
	i := 0
	for us > 1<<i && i < histFiniteBuckets {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += d.Seconds()
}

// Count returns how many durations were observed.
func (h *Histogram) Count() int64 { return h.count }

// BucketCount is one exposition bucket: the count of observations at or
// below UpperSeconds (non-cumulative; PromWriter cumulates).
type BucketCount struct {
	UpperSeconds float64
	Count        int64
}

// HistogramSnapshot is a copy of a histogram's state plus estimated
// quantiles, ready for JSON (quantiles only) and Prometheus (buckets).
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	SumMs float64 `json:"sum_ms"`
	// Quantiles are estimated by linear interpolation inside the log
	// bucket containing the rank — exact to within one bucket's width
	// (a factor of 2).
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// Buckets carries the per-bucket counts for Prometheus exposition;
	// excluded from JSON snapshots to keep /v1/metrics readable.
	Buckets []BucketCount `json:"-"`
}

// Snapshot copies the histogram and estimates p50/p95/p99.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count,
		SumMs:   h.sum * 1e3,
		Buckets: make([]BucketCount, len(h.counts)),
	}
	for i, c := range h.counts {
		s.Buckets[i] = BucketCount{UpperSeconds: BucketUpper(i), Count: c}
	}
	s.P50Ms = h.quantile(0.50) * 1e3
	s.P95Ms = h.quantile(0.95) * 1e3
	s.P99Ms = h.quantile(0.99) * 1e3
	return s
}

// quantile estimates the q-th quantile in seconds by nearest rank over
// the buckets, interpolating linearly between the containing bucket's
// bounds.
func (h *Histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		hi := BucketUpper(i)
		if math.IsInf(hi, 1) {
			// Overflow: report the last finite bound — an explicit floor,
			// not an extrapolation.
			return BucketUpper(histFiniteBuckets - 1)
		}
		lo := 0.0
		if i > 0 {
			lo = BucketUpper(i - 1)
		}
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return BucketUpper(histFiniteBuckets - 1)
}
