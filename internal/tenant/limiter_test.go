package tenant

import (
	"strconv"
	"testing"
	"time"

	"autonosql/internal/store"
)

// TestLimiterTokenBucket pins the admission arithmetic: a bucket at rate r
// admits a burst of up to one second of tokens, then exactly r ops/s.
func TestLimiterTokenBucket(t *testing.T) {
	var l Limiter
	if !l.Admit(0) {
		t.Fatal("disabled limiter rejected an arrival")
	}
	l.SetRate(10, 0) // 10 ops/s, burst 10
	if r := l.Rate(); r != 10 || !l.Enabled() {
		t.Fatalf("Rate = %v enabled=%v, want 10 true", r, l.Enabled())
	}
	// The activation burst: 10 tokens available immediately.
	admitted := 0
	for i := 0; i < 20; i++ {
		if l.Admit(0) {
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("burst admitted %d, want 10", admitted)
	}
	// One second later exactly 10 more tokens have refilled.
	admitted = 0
	for i := 0; i < 20; i++ {
		if l.Admit(time.Second) {
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("refill admitted %d, want 10", admitted)
	}
	// Refill is proportional: 100 ms buys one token at 10 ops/s.
	if !l.Admit(1100 * time.Millisecond) {
		t.Error("100ms refill did not buy one token")
	}
	if l.Admit(1100 * time.Millisecond) {
		t.Error("second arrival at the same instant admitted without a token")
	}
}

// TestLimiterDeterminism pins that two identical arrival sequences make
// identical admit/shed decisions — the property the golden fingerprints
// depend on.
func TestLimiterDeterminism(t *testing.T) {
	run := func() []bool {
		var l Limiter
		l.SetRate(3, 0)
		var out []bool
		for i := 0; i < 100; i++ {
			out = append(out, l.Admit(time.Duration(i*137)*time.Millisecond))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between identical runs", i)
		}
	}
}

// TestLimiterWindows pins the throttle timeline: every rate change closes
// the open window, Disable ends it, and a still-open window is closed at the
// query horizon.
func TestLimiterWindows(t *testing.T) {
	var l Limiter
	l.SetRate(100, 10*time.Second)
	l.SetRate(100, 11*time.Second) // same rate: no new window
	l.SetRate(50, 20*time.Second)  // tighten: close + reopen
	l.Disable(30 * time.Second)
	l.SetRate(200, 40*time.Second)

	ws := l.Windows(60 * time.Second)
	want := []ThrottleWindow{
		{Start: 10 * time.Second, End: 20 * time.Second, Rate: 100},
		{Start: 20 * time.Second, End: 30 * time.Second, Rate: 50},
		{Start: 40 * time.Second, End: 60 * time.Second, Rate: 200},
	}
	if len(ws) != len(want) {
		t.Fatalf("windows = %v, want %v", ws, want)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("window %d = %v, want %v", i, ws[i], want[i])
		}
	}
	if got := l.ThrottledTime(60 * time.Second); got != 40*time.Second {
		t.Errorf("ThrottledTime = %v, want 40s", got)
	}
	// Tightening does not grant a fresh burst.
	var tight Limiter
	tight.SetRate(1000, 0)
	for tight.Admit(0) {
	}
	tight.SetRate(10, 0)
	if tight.Admit(0) {
		t.Error("tightening refilled the bucket")
	}
}

// TestRuntimeShedsAndAccounts pins the runtime's shed path: a throttled
// runtime rejects excess arrivals synchronously with ErrAdmissionShed,
// counts them as errors in its own interval accounting and reports them
// (plus the throttle state) on the Signal.
func TestRuntimeShedsAndAccounts(t *testing.T) {
	inner := &fakeTarget{latency: time.Millisecond}
	rt, err := NewRuntime(1, "batch", Bronze, inner, newAggregate())
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Throttle(10); err == nil {
		t.Fatal("Throttle before EnableAdmission did not fail")
	}
	now := time.Duration(0)
	sheds := 0
	if err := rt.EnableAdmission(func() time.Duration { return now }, func(write bool) { sheds++ }); err != nil {
		t.Fatalf("EnableAdmission: %v", err)
	}
	if err := rt.Throttle(5); err != nil { // burst of 5
		t.Fatalf("Throttle: %v", err)
	}

	shedResults := 0
	for i := 0; i < 20; i++ {
		rt.Write(store.Key(strconv.Itoa(i)), func(r store.Result) {
			if r.Err == ErrAdmissionShed {
				shedResults++
			}
		})
	}
	if inner.writes != 5 {
		t.Errorf("inner target saw %d writes, want 5 (the burst)", inner.writes)
	}
	if shedResults != 15 || sheds != 15 || rt.ShedOps() != 15 {
		t.Errorf("shed accounting: results=%d hook=%d total=%d, want 15 each", shedResults, sheds, rt.ShedOps())
	}

	sig := rt.Observe(10*time.Second, 10*time.Second, 0.001)
	if !sig.Throttled || sig.ThrottleRate != 5 {
		t.Errorf("signal throttle state = %v @%v, want true @5", sig.Throttled, sig.ThrottleRate)
	}
	if sig.ShedOpsPerSec != 1.5 {
		t.Errorf("ShedOpsPerSec = %v, want 1.5 (15 shed over 10s)", sig.ShedOpsPerSec)
	}
	if sig.ErrorRate != 0.75 {
		t.Errorf("ErrorRate = %v, want 0.75 (15 shed of 20 offered)", sig.ErrorRate)
	}
	if rate, on := rt.Throttled(); !on || rate != 5 {
		t.Errorf("Throttled() = %v, %v", rate, on)
	}
	if err := rt.Unthrottle(); err != nil {
		t.Fatalf("Unthrottle: %v", err)
	}
	if _, on := rt.Throttled(); on {
		t.Error("runtime still throttled after Unthrottle")
	}
	// Throttle and release both happened at virtual time zero: the
	// zero-length window is dropped rather than recorded with End==0, which
	// would read as a window still open for the whole run.
	if ws := rt.ThrottleWindows(20 * time.Second); len(ws) != 0 {
		t.Errorf("instant throttle left windows %v, want none", ws)
	}
	if tt := rt.ThrottledTime(20 * time.Second); tt != 0 {
		t.Errorf("instant throttle counted %v of throttled time, want 0", tt)
	}
}

// TestLimiterInstantWindowDropped pins the degenerate timeline directly: a
// throttle engaged and released at the same instant contributes no window
// and no throttled time, and re-rating at the same instant never leaves
// overlapping windows.
func TestLimiterInstantWindowDropped(t *testing.T) {
	var l Limiter
	l.SetRate(100, 0)
	l.Disable(0)
	if ws := l.Windows(time.Minute); len(ws) != 0 {
		t.Errorf("windows = %v, want none", ws)
	}
	l.SetRate(100, 10*time.Second)
	l.SetRate(50, 10*time.Second) // re-rate at the same instant
	l.Disable(20 * time.Second)
	ws := l.Windows(time.Minute)
	if len(ws) != 1 || ws[0] != (ThrottleWindow{Start: 10 * time.Second, End: 20 * time.Second, Rate: 50}) {
		t.Errorf("windows = %v, want one 10s..20s @50", ws)
	}
	if tt := l.ThrottledTime(time.Minute); tt != 10*time.Second {
		t.Errorf("ThrottledTime = %v, want 10s", tt)
	}
}
