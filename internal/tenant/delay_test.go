package tenant

import (
	"testing"
	"time"

	"autonosql/internal/sim"
	"autonosql/internal/store"
)

// delayRuntime assembles a runtime in delay mode on a fresh engine, with the
// drain scheduled on the engine's event loop.
func delayRuntime(t *testing.T, engine *sim.Engine, target Target, onShed func(write bool)) *Runtime {
	t.Helper()
	rt, err := NewRuntime(1, "bronze", Bronze, target, newAggregate())
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.EnableAdmission(engine.Now, onShed); err != nil {
		t.Fatalf("EnableAdmission: %v", err)
	}
	if err := rt.EnableDelayMode(func(d time.Duration, fn func()) {
		engine.After(d, func(time.Duration) { fn() })
	}); err != nil {
		t.Fatalf("EnableDelayMode: %v", err)
	}
	return rt
}

// TestDelayModeQueuesInsteadOfShedding is the delay-vs-shed ground truth at
// the runtime level: under an admission rate of 1 op/s, a burst of 4 arrivals
// at t=0 admits one immediately and queues the rest, draining exactly one per
// second with the queueing delay charged as latency — where shed mode would
// have rejected all three.
func TestDelayModeQueuesInsteadOfShedding(t *testing.T) {
	engine := sim.NewEngine()
	target := &fakeTarget{}
	sheds := 0
	rt := delayRuntime(t, engine, target, func(bool) { sheds++ })

	if err := rt.Throttle(1); err != nil {
		t.Fatalf("Throttle: %v", err)
	}
	var latencies []time.Duration
	var errs []error
	engine.After(0, func(time.Duration) {
		for i := 0; i < 4; i++ {
			rt.Read(store.Key("k"), func(res store.Result) {
				latencies = append(latencies, res.Latency)
				errs = append(errs, res.Err)
			})
		}
	})
	if rtDepth := rt.QueueDepth(); rtDepth != 0 {
		t.Fatalf("queue depth before run = %d, want 0", rtDepth)
	}
	if err := engine.Run(10 * time.Second); err != nil {
		t.Fatalf("engine.Run: %v", err)
	}

	if target.reads != 4 {
		t.Errorf("target saw %d reads, want 4 (nothing dropped)", target.reads)
	}
	if sheds != 0 || rt.ShedOps() != 0 {
		t.Errorf("delay mode shed %d/%d ops, want 0", sheds, rt.ShedOps())
	}
	if rt.DelayedOps() != 3 {
		t.Errorf("DelayedOps = %d, want 3", rt.DelayedOps())
	}
	if rt.MaxQueueDepth() != 3 {
		t.Errorf("MaxQueueDepth = %d, want 3", rt.MaxQueueDepth())
	}
	if rt.QueueDepth() != 0 {
		t.Errorf("QueueDepth after drain = %d, want 0", rt.QueueDepth())
	}
	// The token bucket refills at exactly 1 token/s from t=0, so the drain
	// forwards one queued arrival at t=1s, 2s, 3s — each charged its exact
	// wait.
	want := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second}
	if len(latencies) != len(want) {
		t.Fatalf("got %d results, want %d", len(latencies), len(want))
	}
	for i := range want {
		if errs[i] != nil {
			t.Errorf("op %d failed: %v (delay mode must not produce errors)", i, errs[i])
		}
		if latencies[i] != want[i] {
			t.Errorf("op %d latency = %v, want %v", i, latencies[i], want[i])
		}
	}
}

// TestDelayModeShedGroundTruth pins that shed mode and delay mode agree on
// the ground truth of the same burst: the shed-mode runtime rejects exactly
// the arrivals the delay-mode runtime queues.
func TestDelayModeShedGroundTruth(t *testing.T) {
	burst := 10

	// Shed mode.
	shedEngine := sim.NewEngine()
	shedTarget := &fakeTarget{}
	shedRT, err := NewRuntime(1, "bronze", Bronze, shedTarget, newAggregate())
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := shedRT.EnableAdmission(shedEngine.Now, nil); err != nil {
		t.Fatalf("EnableAdmission: %v", err)
	}
	if err := shedRT.Throttle(1); err != nil {
		t.Fatalf("Throttle: %v", err)
	}
	shedEngine.After(0, func(time.Duration) {
		for i := 0; i < burst; i++ {
			shedRT.Write(store.Key("k"), nil)
		}
	})
	if err := shedEngine.Run(time.Minute); err != nil {
		t.Fatalf("engine.Run: %v", err)
	}

	// Delay mode, same burst.
	delayEngine := sim.NewEngine()
	delayTarget := &fakeTarget{}
	delayRT := delayRuntime(t, delayEngine, delayTarget, nil)
	if err := delayRT.Throttle(1); err != nil {
		t.Fatalf("Throttle: %v", err)
	}
	delayEngine.After(0, func(time.Duration) {
		for i := 0; i < burst; i++ {
			delayRT.Write(store.Key("k"), nil)
		}
	})
	if err := delayEngine.Run(time.Minute); err != nil {
		t.Fatalf("engine.Run: %v", err)
	}

	if shedRT.ShedOps() != delayRT.DelayedOps() {
		t.Errorf("shed mode rejected %d ops, delay mode queued %d: modes disagree on the excess",
			shedRT.ShedOps(), delayRT.DelayedOps())
	}
	if want := shedTarget.writes + int(shedRT.ShedOps()); delayTarget.writes != want {
		t.Errorf("delay mode forwarded %d writes, want %d (shed-mode admits + sheds)",
			delayTarget.writes, want)
	}
	if delayRT.ShedOps() != 0 {
		t.Errorf("delay mode shed %d ops with room in the queue", delayRT.ShedOps())
	}
}

// TestDelayModeOverflowSheds pins the queue bound: arrivals past
// delayQueueCap fall back to shedding.
func TestDelayModeOverflowSheds(t *testing.T) {
	engine := sim.NewEngine()
	target := &fakeTarget{}
	sheds := 0
	rt := delayRuntime(t, engine, target, func(bool) { sheds++ })
	if err := rt.Throttle(1); err != nil {
		t.Fatalf("Throttle: %v", err)
	}
	extra := 3
	engine.After(0, func(time.Duration) {
		// One admitted by the activation burst token, delayQueueCap queued,
		// the rest shed.
		for i := 0; i < 1+delayQueueCap+extra; i++ {
			rt.Read(store.Key("k"), nil)
		}
	})
	// Run just past the burst instant; draining the full queue would take
	// delayQueueCap seconds and is not what is under test.
	if err := engine.Run(time.Millisecond); err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	if rt.DelayedOps() != delayQueueCap {
		t.Errorf("DelayedOps = %d, want %d", rt.DelayedOps(), delayQueueCap)
	}
	if sheds != extra || rt.ShedOps() != uint64(extra) {
		t.Errorf("shed %d/%d ops past the cap, want %d", sheds, rt.ShedOps(), extra)
	}
	if rt.MaxQueueDepth() != delayQueueCap {
		t.Errorf("MaxQueueDepth = %d, want %d", rt.MaxQueueDepth(), delayQueueCap)
	}
}

// TestDelayModeUnthrottleFlushes pins the release path: removing the limit
// forwards everything still queued, charging each op the wait it accrued.
func TestDelayModeUnthrottleFlushes(t *testing.T) {
	engine := sim.NewEngine()
	target := &fakeTarget{}
	rt := delayRuntime(t, engine, target, nil)
	if err := rt.Throttle(1); err != nil {
		t.Fatalf("Throttle: %v", err)
	}
	var latencies []time.Duration
	engine.After(0, func(time.Duration) {
		for i := 0; i < 3; i++ {
			rt.Read(store.Key("k"), func(res store.Result) {
				latencies = append(latencies, res.Latency)
			})
		}
	})
	engine.After(500*time.Millisecond, func(time.Duration) {
		if err := rt.Unthrottle(); err != nil {
			t.Errorf("Unthrottle: %v", err)
		}
	})
	if err := engine.Run(time.Second); err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	if target.reads != 3 {
		t.Errorf("target saw %d reads, want 3", target.reads)
	}
	if rt.QueueDepth() != 0 {
		t.Errorf("QueueDepth after unthrottle = %d, want 0", rt.QueueDepth())
	}
	// op 0 admitted at t=0; op 1 would have drained at the t=1s token but
	// the t=0.5s release flushes it (and op 2) first.
	want := []time.Duration{0, 500 * time.Millisecond, 500 * time.Millisecond}
	if len(latencies) != len(want) {
		t.Fatalf("got %d results, want %d", len(latencies), len(want))
	}
	for i := range want {
		if latencies[i] != want[i] {
			t.Errorf("op %d latency = %v, want %v", i, latencies[i], want[i])
		}
	}
}

// TestDelayModeRequiresAdmission pins the wiring order: delay mode without
// admission plumbing is an error, as is a nil scheduler.
func TestDelayModeRequiresAdmission(t *testing.T) {
	rt, err := NewRuntime(1, "x", Gold, &fakeTarget{}, newAggregate())
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.EnableDelayMode(func(time.Duration, func()) {}); err == nil {
		t.Error("EnableDelayMode accepted a runtime without admission control")
	}
	engine := sim.NewEngine()
	if err := rt.EnableAdmission(engine.Now, nil); err != nil {
		t.Fatalf("EnableAdmission: %v", err)
	}
	if err := rt.EnableDelayMode(nil); err == nil {
		t.Error("EnableDelayMode accepted a nil scheduler")
	}
}

// TestNextTokenWait pins the drain scheduling arithmetic.
func TestNextTokenWait(t *testing.T) {
	var l Limiter
	if w := l.NextTokenWait(0); w != 0 {
		t.Errorf("disabled limiter wait = %v, want 0", w)
	}
	l.SetRate(2, 0) // burst of 2 tokens at activation
	if w := l.NextTokenWait(0); w != 0 {
		t.Errorf("full bucket wait = %v, want 0", w)
	}
	if !l.Admit(0) || !l.Admit(0) {
		t.Fatal("burst tokens not admitted")
	}
	// Empty bucket at rate 2/s: next token in 500ms.
	if w := l.NextTokenWait(0); w != 500*time.Millisecond {
		t.Errorf("empty bucket wait = %v, want 500ms", w)
	}
	// Waiting must not consume: asking twice gives the same answer.
	if w := l.NextTokenWait(0); w != 500*time.Millisecond {
		t.Errorf("second wait = %v, want 500ms (NextTokenWait must not consume)", w)
	}
	// Partial refill: at t=250ms half a token exists, 250ms to go.
	if w := l.NextTokenWait(250 * time.Millisecond); w != 250*time.Millisecond {
		t.Errorf("partial refill wait = %v, want 250ms", w)
	}
}
