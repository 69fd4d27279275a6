package tenant

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/metrics"
	"autonosql/internal/sim"
	"autonosql/internal/store"
)

func TestParseClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Class
	}{
		{"gold", Gold}, {"GOLD", Gold}, {" Silver ", Silver}, {"bronze", Bronze},
	} {
		got, err := ParseClass(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "platinum", "g0ld"} {
		if _, err := ParseClass(bad); err == nil {
			t.Errorf("ParseClass(%q) accepted", bad)
		}
	}
}

func TestClassOrdering(t *testing.T) {
	if !(Gold.Rank() > Silver.Rank() && Silver.Rank() > Bronze.Rank()) {
		t.Errorf("class ranks not ordered: gold=%d silver=%d bronze=%d",
			Gold.Rank(), Silver.Rank(), Bronze.Rank())
	}
	var prevWindow time.Duration
	var prevPenalty = 1e18
	for _, c := range Classes() {
		spec := c.Spec()
		if err := spec.SLA.Validate(); err != nil {
			t.Errorf("class %s SLA invalid: %v", c, err)
		}
		if spec.SLA.MaxWindowP95 <= prevWindow {
			t.Errorf("class %s window bound %v not looser than previous %v", c, spec.SLA.MaxWindowP95, prevWindow)
		}
		if spec.PenaltyPerMinute >= prevPenalty {
			t.Errorf("class %s penalty %v not cheaper than previous %v", c, spec.PenaltyPerMinute, prevPenalty)
		}
		prevWindow = spec.SLA.MaxWindowP95
		prevPenalty = spec.PenaltyPerMinute
	}
}

// fakeTarget completes every operation synchronously with a fixed latency,
// failing when told to.
type fakeTarget struct {
	latency time.Duration
	fail    error
	reads   int
	writes  int
}

func (f *fakeTarget) ReadAs(_ store.TenantID, key store.Key, cb func(store.Result)) {
	f.reads++
	cb(store.Result{Kind: store.OpRead, Key: key, Err: f.fail, Latency: f.latency})
}

func (f *fakeTarget) WriteAs(_ store.TenantID, key store.Key, cb func(store.Result)) {
	f.writes++
	cb(store.Result{Kind: store.OpWrite, Key: key, Err: f.fail, Latency: f.latency})
}

// newAggregate is a stand-in for the monitor's client view.
func newAggregate() *metrics.IntervalRecorder { return metrics.NewIntervalRecorder(16) }

func TestRuntimeObserveAndSummarize(t *testing.T) {
	target := &fakeTarget{latency: 5 * time.Millisecond}
	rt, err := NewRuntime(1, "gold", Gold, target, newAggregate())
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	for i := 0; i < 50; i++ {
		rt.Read(store.Key("k"), nil)
		rt.Write(store.Key("k"), nil)
	}
	interval := 10 * time.Second

	// A compliant interval: window well inside the gold bound.
	sig := rt.Observe(interval, interval, 0.010)
	if sig.Name != "gold" || sig.Class != Gold {
		t.Errorf("signal identity wrong: %+v", sig)
	}
	if sig.ErrorRate != 0 || sig.InViolation() {
		t.Errorf("compliant interval flagged: %+v", sig)
	}
	if want := float64(100) / interval.Seconds(); sig.OfferedOpsPerSec != want {
		t.Errorf("offered rate = %v, want %v", sig.OfferedOpsPerSec, want)
	}

	// A violating interval: window far past the gold 150 ms bound.
	target.fail = errors.New("boom")
	for i := 0; i < 10; i++ {
		rt.Read(store.Key("k"), nil)
	}
	sig = rt.Observe(2*interval, interval, 1.0)
	if !sig.InViolation() {
		t.Errorf("violating interval not flagged: %+v", sig)
	}
	if sig.ErrorRate != 1 {
		t.Errorf("error rate = %v, want 1", sig.ErrorRate)
	}
	if sig.Urgency() <= 0 {
		t.Errorf("urgency = %v, want positive", sig.Urgency())
	}

	sum := rt.Summarize()
	if sum.Name != "gold" || sum.Class != Gold {
		t.Errorf("summary identity wrong: %+v", sum)
	}
	wantPenalty := interval.Minutes() * Gold.Spec().PenaltyPerMinute
	if diff := sum.Penalty - wantPenalty; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("penalty = %v, want %v", sum.Penalty, wantPenalty)
	}
}

func TestRuntimeValidation(t *testing.T) {
	target := &fakeTarget{}
	if _, err := NewRuntime(0, "x", Gold, target, newAggregate()); err == nil {
		t.Error("zero id accepted")
	}
	if _, err := NewRuntime(1, "", Gold, target, newAggregate()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewRuntime(1, "x", Class("platinum"), target, newAggregate()); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := NewRuntime(1, "x", Gold, nil, newAggregate()); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := NewRuntime(1, "x", Gold, target, nil); err == nil {
		t.Error("nil aggregate recorder accepted")
	}
}

func TestSignalUrgencyWeighting(t *testing.T) {
	// Identical relative badness: the gold tenant must rank above bronze
	// because its violations are pricier.
	gold := Signal{Class: Gold, SLA: Gold.Spec().SLA,
		PenaltyPerMinute: Gold.Spec().PenaltyPerMinute,
		WindowP95:        2 * Gold.Spec().SLA.MaxWindowP95.Seconds()}
	bronze := Signal{Class: Bronze, SLA: Bronze.Spec().SLA,
		PenaltyPerMinute: Bronze.Spec().PenaltyPerMinute,
		WindowP95:        2 * Bronze.Spec().SLA.MaxWindowP95.Seconds()}
	if gold.Urgency() <= bronze.Urgency() {
		t.Errorf("gold urgency %v not above bronze %v at equal relative violation",
			gold.Urgency(), bronze.Urgency())
	}
}

// TestRuntimeFeedsAggregateView pins what the monitor's aggregate view sees
// of a tenant: an operation counts when it is forwarded (at release for a
// delayed one) with its store latency, without the queueing delay the
// tenant's own view charges, and a shed never reaches it.
func TestRuntimeFeedsAggregateView(t *testing.T) {
	engine := sim.NewEngine()
	agg := newAggregate()
	rt, err := NewRuntime(1, "bronze", Bronze, &fakeTarget{latency: 5 * time.Millisecond}, agg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.EnableAdmission(engine.Now, nil); err != nil {
		t.Fatalf("EnableAdmission: %v", err)
	}
	if err := rt.EnableDelayMode(func(d time.Duration, fn func()) {
		engine.After(d, func(time.Duration) { fn() })
	}); err != nil {
		t.Fatalf("EnableDelayMode: %v", err)
	}
	if err := rt.Throttle(1); err != nil {
		t.Fatalf("Throttle: %v", err)
	}
	engine.After(0, func(time.Duration) {
		for i := 0; i < 4; i++ {
			rt.Read(store.Key("k"), nil)
		}
	})
	if err := engine.Run(500 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if iv := agg.Close(time.Second); iv.Ops != 1 {
		t.Errorf("aggregate counted %d ops before the queue drained, want 1 (the admitted one)", iv.Ops)
	}
	if err := engine.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	iv := agg.Close(time.Second)
	if iv.Ops != 3 || iv.ErrorRate != 0 {
		t.Errorf("aggregate after drain = %+v, want 3 released ops, no errors", iv)
	}
	if iv.ReadLatencyP99 != 0.005 {
		t.Errorf("aggregate read p99 = %v, want the 5 ms store latency", iv.ReadLatencyP99)
	}
	sig := rt.Observe(10*time.Second, 10*time.Second, 0)
	if sig.OfferedOpsPerSec != 0.4 || sig.ReadLatencyP99 < 2 {
		t.Errorf("tenant view = %+v, want 4 arrivals over 10 s and the queueing delay in p99", sig)
	}

	shedAgg := newAggregate()
	shed, err := NewRuntime(1, "bronze", Bronze, &fakeTarget{}, shedAgg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := shed.EnableAdmission(engine.Now, nil); err != nil {
		t.Fatalf("EnableAdmission: %v", err)
	}
	if err := shed.Throttle(1); err != nil {
		t.Fatalf("Throttle: %v", err)
	}
	for i := 0; i < 4; i++ {
		shed.Write(store.Key("k"), nil)
	}
	if iv := shedAgg.Close(time.Second); iv.Ops != 1 || iv.ErrorRate != 0 {
		t.Errorf("aggregate in shed mode = %+v, want only the admitted op", iv)
	}
	if sig := shed.Observe(time.Second, time.Second, 0); sig.ErrorRate != 0.75 {
		t.Errorf("tenant error rate = %v, want 0.75 (three of four shed)", sig.ErrorRate)
	}
}

// TestRuntimeWriteAllocs guards the tenant path's per-operation cost: a
// write through the runtime into a real store, issued without a callback as
// the generators issue it, allocates at most one object more than a bare
// tagged write (the runtime's completion closure).
func TestRuntimeWriteAllocs(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(1)
	st, err := store.New(store.DefaultConfig(), engine, cluster.New(cluster.DefaultConfig(), engine, src), src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	st.RegisterTenants(1)
	rt, err := NewRuntime(1, "gold", Gold, st, newAggregate())
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	keys := make([]store.Key, 256)
	for i := range keys {
		keys[i] = store.Key("key-" + strconv.Itoa(i))
	}
	i := 0
	allocs := func(write func(store.Key)) float64 {
		op := func() {
			i++
			write(keys[i%len(keys)])
			// Every write completes well inside 100 ms on an idle cluster.
			if err := engine.Run(engine.Now() + 100*time.Millisecond); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		for j := 0; j < 64; j++ {
			op() // warm the engine's event pool and the store's scratch
		}
		return testing.AllocsPerRun(200, op)
	}
	bare := allocs(func(k store.Key) { st.WriteAs(1, k, nil) })
	runtime := allocs(func(k store.Key) { rt.Write(k, nil) })
	if runtime > bare+1 {
		t.Errorf("runtime write allocates %.1f objects, bare WriteAs %.1f: want at most one more", runtime, bare)
	}
}
