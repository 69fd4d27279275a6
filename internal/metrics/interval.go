package metrics

import "time"

// IntervalRecorder is one client view of operation outcomes: the operations
// issued and failed since the interval began, and the latencies of recent
// successful reads and writes. The monitor keeps one over all client traffic
// and each tenant runtime one over its tenant's.
type IntervalRecorder struct {
	ops      uint64
	failures uint64
	readLat  *WindowedStat
	writeLat *WindowedStat
}

// Interval is what one closed interval of an IntervalRecorder reports.
type Interval struct {
	// Ops is the number of operations issued in the interval.
	Ops uint64
	// OpsPerSec is Ops over the interval length (zero for a zero length).
	OpsPerSec float64
	// ErrorRate is the failed fraction of Ops (zero when none was issued).
	ErrorRate float64
	// ReadLatencyP99 and WriteLatencyP99 are the p99s of the recent-latency
	// windows, in seconds. The windows span intervals.
	ReadLatencyP99  float64
	WriteLatencyP99 float64
}

// NewIntervalRecorder creates a recorder whose read and write latency windows
// each retain the last window samples.
func NewIntervalRecorder(window int) *IntervalRecorder {
	return &IntervalRecorder{readLat: NewWindowedStat(window), writeLat: NewWindowedStat(window)}
}

// Issue counts one operation into the current interval.
func (r *IntervalRecorder) Issue() { r.ops++ }

// Fail counts one failed operation into the current interval.
func (r *IntervalRecorder) Fail() { r.failures++ }

// Complete records one operation's outcome: a failure when err is non-nil,
// otherwise its latency in the read or write window.
func (r *IntervalRecorder) Complete(write bool, latency time.Duration, err error) {
	switch {
	case err != nil:
		r.failures++
	case write:
		r.writeLat.Observe(latency.Seconds())
	default:
		r.readLat.Observe(latency.Seconds())
	}
}

// Close reports the interval of the given length that ends now and starts
// the next one.
func (r *IntervalRecorder) Close(length time.Duration) Interval {
	iv := Interval{
		Ops:             r.ops,
		ReadLatencyP99:  r.readLat.Quantile(0.99),
		WriteLatencyP99: r.writeLat.Quantile(0.99),
	}
	if length > 0 {
		iv.OpsPerSec = float64(r.ops) / length.Seconds()
	}
	if r.ops > 0 {
		iv.ErrorRate = float64(r.failures) / float64(r.ops)
	}
	r.ops, r.failures = 0, 0
	return iv
}
