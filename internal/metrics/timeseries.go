package metrics

import (
	"sort"
	"time"
)

// Point is a single (virtual time, value) observation.
type Point struct {
	At    time.Duration
	Value float64
}

// TimeSeries stores timestamped observations in arrival order. A scenario
// keeps one per reported metric (inconsistency window, cluster size, load,
// ...) to record how it evolves over a run. The zero value is empty and ready
// to use.
type TimeSeries struct {
	points []Point
}

// Append records a point. Points are expected in non-decreasing time order;
// out-of-order points are accepted and sorted by Points.
func (ts *TimeSeries) Append(at time.Duration, value float64) {
	ts.points = append(ts.points, Point{At: at, Value: value})
}

// Points returns a copy of the stored points sorted by time.
func (ts *TimeSeries) Points() []Point {
	out := make([]Point, len(ts.points))
	copy(out, ts.points)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Last returns the most recently appended point and whether one exists.
func (ts *TimeSeries) Last() (Point, bool) {
	if len(ts.points) == 0 {
		return Point{}, false
	}
	return ts.points[len(ts.points)-1], true
}

// WindowedStat maintains summary statistics over a sliding window of the
// last N samples. Controllers use it to look at recent behaviour only.
type WindowedStat struct {
	size   int
	buf    []float64
	next   int
	filled bool
	// scratch is the reusable sort buffer for quantile queries, which run
	// several times per sampling interval over windows of thousands of
	// samples.
	scratch []float64
}

// NewWindowedStat creates a sliding window over the last size samples.
func NewWindowedStat(size int) *WindowedStat {
	if size <= 0 {
		size = 1
	}
	return &WindowedStat{size: size, buf: make([]float64, size)}
}

// Observe records a sample, evicting the oldest when full.
func (w *WindowedStat) Observe(v float64) {
	w.buf[w.next] = v
	w.next++
	if w.next == w.size {
		w.next = 0
		w.filled = true
	}
}

// Count returns the number of samples currently in the window.
func (w *WindowedStat) Count() int {
	if w.filled {
		return w.size
	}
	return w.next
}

func (w *WindowedStat) values() []float64 {
	if w.filled {
		return w.buf
	}
	return w.buf[:w.next]
}

// Mean returns the mean of the samples in the window.
func (w *WindowedStat) Mean() float64 {
	vs := w.values()
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Quantile returns the q-quantile of the window contents.
func (w *WindowedStat) Quantile(q float64) float64 {
	cp := w.sortedScratch()
	if len(cp) == 0 {
		return 0
	}
	return quantileOfSorted(cp, q)
}

// Quantiles appends the qs[i]-quantiles of the window contents to dst and
// returns the extended slice, one result per requested quantile in order.
// The window is copied and sorted exactly once, so a sampler that reads
// several quantiles per report interval (p50/p95/p99) pays one O(n log n)
// sort instead of one per quantile. Callers on a hot path pass a reused
// buffer (sliced to [:0]) with capacity len(qs) to stay allocation-free.
func (w *WindowedStat) Quantiles(qs []float64, dst []float64) []float64 {
	cp := w.sortedScratch()
	for _, q := range qs {
		if len(cp) == 0 {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, quantileOfSorted(cp, q))
	}
	return dst
}

// sortedScratch copies the window contents into the reusable scratch buffer
// and sorts it. The result is valid until the next Observe or quantile query.
func (w *WindowedStat) sortedScratch() []float64 {
	vs := w.values()
	cp := append(w.scratch[:0], vs...)
	w.scratch = cp
	sort.Float64s(cp)
	return cp
}

// quantileOfSorted interpolates the q-quantile over an already sorted,
// non-empty sample slice. It is the single interpolation behind
// WindowedStat's Quantile and Quantiles and Histogram's Quantile, so the
// three agree bit for bit on the same samples.
func quantileOfSorted(cp []float64, q float64) float64 {
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	pos := q * float64(len(cp)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(cp) {
		return cp[lo]
	}
	return cp[lo]*(1-frac) + cp[lo+1]*frac
}
