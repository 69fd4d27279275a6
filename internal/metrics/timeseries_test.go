package metrics

import (
	"errors"
	"testing"
	"time"
)

func TestTimeSeriesBasics(t *testing.T) {
	var ts TimeSeries
	if _, ok := ts.Last(); ok {
		t.Fatal("Last on empty series should report false")
	}
	ts.Append(1*time.Second, 10)
	ts.Append(2*time.Second, 20)
	ts.Append(3*time.Second, 30)
	if n := len(ts.Points()); n != 3 {
		t.Fatalf("Points has %d entries, want 3", n)
	}
	last, ok := ts.Last()
	if !ok || last.Value != 30 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
}

func TestTimeSeriesBetweenAndSorting(t *testing.T) {
	var ts TimeSeries
	ts.Append(3*time.Second, 3)
	ts.Append(1*time.Second, 1)
	ts.Append(2*time.Second, 2)
	pts := ts.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].At < pts[i-1].At {
			t.Fatal("Points() not sorted by time")
		}
	}
}

func TestWindowedStat(t *testing.T) {
	w := NewWindowedStat(3)
	if w.Count() != 0 || w.Mean() != 0 || w.Quantile(1) != 0 {
		t.Fatal("empty window should report zeros")
	}
	w.Observe(1)
	w.Observe(2)
	w.Observe(3)
	w.Observe(10) // evicts 1
	if w.Count() != 3 {
		t.Fatalf("Count = %d, want 3", w.Count())
	}
	if w.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	if q := w.Quantile(1); q != 10 {
		t.Fatalf("p100 = %v, want 10", q)
	}
	if q := w.Quantile(0); q != 2 {
		t.Fatalf("p0 = %v, want 2", q)
	}
}

// TestWindowedStatQuantilesMatchQuantile pins that the batched query is
// bit-for-bit identical to repeated one-shot queries: the monitor switched
// the sampler's p50/p95/p99 reads to one batch, and any divergence would
// break the golden-report fingerprints.
func TestWindowedStatQuantilesMatchQuantile(t *testing.T) {
	w := NewWindowedStat(64)
	qs := []float64{0, 0.25, 0.50, 0.95, 0.99, 1}
	check := func() {
		t.Helper()
		got := w.Quantiles(qs, nil)
		if len(got) != len(qs) {
			t.Fatalf("Quantiles returned %d values for %d quantiles", len(got), len(qs))
		}
		for i, q := range qs {
			if want := w.Quantile(q); got[i] != want {
				t.Fatalf("Quantiles[%v] = %v, Quantile = %v", q, got[i], want)
			}
		}
	}
	check() // empty window: all zeros
	for i := 0; i < 100; i++ {
		w.Observe(float64((i * 37) % 101))
	}
	check()
}

// TestWindowedStatQuantilesAllocFree pins the sampler-facing contract: a
// batched quantile query over a warmed window with a reused result buffer
// performs zero allocations.
func TestWindowedStatQuantilesAllocFree(t *testing.T) {
	w := NewWindowedStat(2048)
	for i := 0; i < 4096; i++ {
		w.Observe(float64(i % 997))
	}
	qs := []float64{0.50, 0.95, 0.99}
	var buf [3]float64
	w.Quantiles(qs, buf[:0]) // warm the sort scratch
	avg := testing.AllocsPerRun(100, func() {
		w.Observe(1)
		_ = w.Quantiles(qs, buf[:0])
	})
	if avg != 0 {
		t.Errorf("batched quantile query allocates %.1f objects per call, want 0", avg)
	}
}

func TestWindowedStatSizeClamp(t *testing.T) {
	w := NewWindowedStat(0)
	w.Observe(4)
	w.Observe(6)
	if w.Count() != 1 || w.Mean() != 6 {
		t.Fatalf("size-0 window should clamp to 1, got count=%d mean=%v", w.Count(), w.Mean())
	}
}

// TestIntervalRecorder pins the interval arithmetic the monitor and the tenant
// runtimes share: ops and failures reset at Close, the latency windows do not.
func TestIntervalRecorder(t *testing.T) {
	r := NewIntervalRecorder(16)
	for i := 0; i < 4; i++ {
		r.Issue()
	}
	r.Complete(false, 10*time.Millisecond, nil)
	r.Complete(true, 30*time.Millisecond, nil)
	r.Complete(true, time.Second, errors.New("boom"))
	r.Fail()
	iv := r.Close(2 * time.Second)
	want := Interval{Ops: 4, OpsPerSec: 2, ErrorRate: 0.5, ReadLatencyP99: 0.01, WriteLatencyP99: 0.03}
	if iv != want {
		t.Fatalf("Close = %+v, want %+v", iv, want)
	}
	iv = r.Close(0)
	want = Interval{ReadLatencyP99: 0.01, WriteLatencyP99: 0.03}
	if iv != want {
		t.Fatalf("empty interval = %+v, want %+v", iv, want)
	}
}
