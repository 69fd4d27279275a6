package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Histogram accumulates float64 samples and answers quantile queries.
//
// Samples are kept exactly (not sketched) up to a configurable cap, after
// which reservoir sampling keeps an unbiased subset. This keeps percentile
// estimates accurate for the sample volumes produced by experiments while
// bounding memory.
type Histogram struct {
	samples  []float64
	count    uint64
	sum      float64
	min      float64
	max      float64
	cap      int
	sorted   bool
	rngState uint64
}

// DefaultHistogramCap is the default maximum number of retained samples.
const DefaultHistogramCap = 65536

// NewHistogram creates a histogram retaining at most cap samples. A cap of
// zero or less uses DefaultHistogramCap.
func NewHistogram(cap int) *Histogram {
	if cap <= 0 {
		cap = DefaultHistogramCap
	}
	return &Histogram{
		samples:  make([]float64, 0, min(cap, 4096)),
		min:      math.Inf(1),
		max:      math.Inf(-1),
		cap:      cap,
		rngState: 0x853c49e6748fea9b,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.sorted = false
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, v)
		return
	}
	// Reservoir sampling: replace a random existing sample with probability
	// cap/count, preserving a uniform sample of the stream.
	idx := h.nextRand() % h.count
	if idx < uint64(h.cap) {
		h.samples[idx] = v
	}
}

// ObserveDuration records a sample expressed as a duration, in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// nextRand is a small xorshift generator private to the histogram so that
// reservoir replacement is deterministic for a deterministic input stream.
func (h *Histogram) nextRand() uint64 {
	x := h.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h.rngState = x
	return x
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean of all observed samples, or zero when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observed sample, or zero when empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample, or zero when empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) of the retained samples using
// linear interpolation, the same interpolation WindowedStat uses. It returns
// zero for an empty histogram; q <= 0 and q >= 1 answer the overall minimum
// and maximum, which survive reservoir replacement. The reservoir is sorted
// in place.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	return quantileOfSorted(h.samples, q)
}

// Snapshot captures the common summary statistics of a histogram.
type Snapshot struct {
	Count uint64
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

// Snapshot returns summary statistics for the histogram.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// String renders the snapshot compactly for logs and CLI output.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}
