package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be zero")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram(0)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v, want 1/5", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram(0)
	h.Observe(0)
	h.Observe(10)
	if got := h.Quantile(0.5); got != 5 {
		t.Fatalf("p50 = %v, want 5 (interpolated)", got)
	}
	if got := h.Quantile(0.25); got != 2.5 {
		t.Fatalf("p25 = %v, want 2.5", got)
	}
}

func TestHistogramDuration(t *testing.T) {
	h := NewHistogram(0)
	h.ObserveDuration(100 * time.Millisecond)
	h.ObserveDuration(300 * time.Millisecond)
	if got := h.Quantile(1); got != 0.3 {
		t.Fatalf("Quantile(1) = %v, want 0.3 s", got)
	}
}

// TestHistogramAgreesWithWindowedStat pins the shared interpolation: below
// the histogram's cap and the window's size both retain every sample, so
// every quantile must agree bit for bit.
func TestHistogramAgreesWithWindowedStat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHistogram(0)
	w := NewWindowedStat(1000)
	for i := 0; i < 777; i++ {
		v := rng.ExpFloat64() * 0.01
		h.Observe(v)
		w.Observe(v)
	}
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		if hq, wq := h.Quantile(q), w.Quantile(q); math.Float64bits(hq) != math.Float64bits(wq) {
			t.Errorf("q=%v: Histogram %v, WindowedStat %v", q, hq, wq)
		}
	}
}

func TestHistogramReservoirKeepsDistribution(t *testing.T) {
	h := NewHistogram(1000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		h.Observe(rng.Float64() * 100)
	}
	if h.Count() != 100000 {
		t.Fatalf("Count = %d, want 100000", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 40 || p50 > 60 {
		t.Fatalf("p50 of uniform(0,100) = %v, want roughly 50", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90 {
		t.Fatalf("p99 of uniform(0,100) = %v, want > 90", p99)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		h := NewHistogram(0)
		n := 10 + local.Intn(500)
		for i := 0; i < n; i++ {
			h.Observe(local.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return h.Quantile(0) >= h.Min()-1e-9 && h.Quantile(1) <= h.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatalf("quantile monotonicity property failed: %v", err)
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 || s.P50 < 49 || s.P50 > 52 {
		t.Fatalf("unexpected snapshot %+v", s)
	}
	if s.String() == "" {
		t.Fatal("Snapshot.String() is empty")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatalf("new EWMA = %v, want 0", e.Value())
	}
	if got := e.Update(10); got != 10 {
		t.Fatalf("first update = %v, want 10", got)
	}
	if got := e.Update(20); got != 15 {
		t.Fatalf("second update = %v, want 15", got)
	}
	if e.Value() != 15 {
		t.Fatalf("Value = %v, want 15", e.Value())
	}
}

func TestEWMAClampsAlpha(t *testing.T) {
	for _, alpha := range []float64{-1, 0, 2} {
		e := NewEWMA(alpha)
		e.Update(1)
		e.Update(2)
		v := e.Value()
		if math.IsNaN(v) || v < 1 || v > 2 {
			t.Fatalf("alpha=%v produced out-of-range value %v", alpha, v)
		}
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Update(7)
	}
	if math.Abs(e.Value()-7) > 1e-9 {
		t.Fatalf("EWMA of constant stream = %v, want 7", e.Value())
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero Counter = %d, want 0", c.Value())
	}
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Value())
	}
}

func TestMeanVariance(t *testing.T) {
	var m MeanVariance
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Update(v)
	}
	if m.Count() != 8 {
		t.Fatalf("Count = %d, want 8", m.Count())
	}
	if math.Abs(m.Mean()-5) > 1e-9 {
		t.Fatalf("Mean = %v, want 5", m.Mean())
	}
	if math.Abs(m.Variance()-32.0/7.0) > 1e-9 {
		t.Fatalf("Variance = %v, want %v", m.Variance(), 32.0/7.0)
	}
	if m.StdDev() <= 0 {
		t.Fatal("StdDev should be positive")
	}
	var single MeanVariance
	single.Update(1)
	if single.Variance() != 0 {
		t.Fatal("variance of one sample should be 0")
	}
}
