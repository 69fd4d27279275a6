package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/metrics"
	"autonosql/internal/monitor"
	"autonosql/internal/sim"
	"autonosql/internal/store"
)

// driverRepeats is how many times each layer driver is timed; the metric is
// the median.
const driverRepeats = 5

// layerDrivers times single layers' public functions on fresh instances,
// never inside a running scenario, and returns their per-layer metrics.
func layerDrivers() (map[string]float64, error) {
	v := map[string]float64{}
	v["sim.schedule_step_ns"] = timeDriver(func() float64 { return scheduleStepNs(200_000) })

	var err error
	var writeAllocs, readAllocs float64
	v["store.write_ns"] = timeDriver(func() float64 {
		var ns float64
		ns, writeAllocs, err = storeOpNs(true, 20_000)
		return ns
	})
	if err != nil {
		return nil, err
	}
	v["store.read_ns"] = timeDriver(func() float64 {
		var ns float64
		ns, readAllocs, err = storeOpNs(false, 20_000)
		return ns
	})
	if err != nil {
		return nil, err
	}
	v["store.write_allocs"], v["store.read_allocs"] = writeAllocs, readAllocs

	h := metrics.NewHistogram(0)
	for i := 0; i < 2*metrics.DefaultHistogramCap; i++ {
		h.Observe(float64(i%9973) * 1e-4) // fill the reservoir
	}
	v["metrics.observe_ns"] = timeDriver(func() float64 {
		const n = 1_000_000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			h.Observe(float64(i%9973) * 1e-4)
		}
		return float64(time.Since(t0)) / n
	})
	v["metrics.snapshot_ms"] = timeDriver(func() float64 {
		const n = 20
		var total time.Duration
		for i := 0; i < n; i++ {
			total += snapshotFull(uint64(i + 1))
		}
		return float64(total) / float64(time.Millisecond) / n
	})

	v["monitor.snapshot_us"] = timeDriver(func() float64 {
		var us float64
		us, err = monitorSnapshotUs(200)
		return us
	})
	return v, err
}

// snapshotFull times one Histogram.Snapshot of a full, unsorted
// 65,536-sample reservoir: the first quantile query after a window's worth
// of observations sorts every retained sample.
func snapshotFull(seed uint64) time.Duration {
	h := metrics.NewHistogram(0)
	x := seed * 0x9e3779b97f4a7c15
	for i := 0; i < metrics.DefaultHistogramCap; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.Observe(float64(x>>11) / (1 << 53))
	}
	t0 := time.Now()
	_ = h.Snapshot()
	return time.Since(t0)
}

func timeDriver(fn func() float64) float64 {
	xs := make([]float64, driverRepeats)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// scheduleStepNs is one AfterArg + Step on an engine holding 4096 pending
// events, the depth of a loaded scenario's queue.
func scheduleStepNs(n int) float64 {
	e := sim.NewEngine()
	noop := func(any, time.Duration) {}
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.AfterArg(time.Duration(i+1)*time.Millisecond, noop, nil)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e.AfterArg(depth*time.Millisecond, noop, nil)
		e.Step()
	}
	return float64(time.Since(t0)) / float64(n)
}

// storeRig is an engine, a default 3-node cluster and a default store.
type storeRig struct {
	engine *sim.Engine
	cl     *cluster.Cluster
	st     *store.Store
	keys   []store.Key
	fired  int
}

func newStoreRig() (*storeRig, error) {
	e := sim.NewEngine()
	src := sim.NewRandSource(1)
	cl := cluster.New(cluster.DefaultConfig(), e, src)
	st, err := store.New(store.DefaultConfig(), e, cl, src)
	if err != nil {
		return nil, fmt.Errorf("store driver: %w", err)
	}
	keys := make([]store.Key, 512)
	for i := range keys {
		keys[i] = store.Key("key-" + strconv.Itoa(i))
	}
	return &storeRig{engine: e, cl: cl, st: st, keys: keys}, nil
}

func (r *storeRig) done(store.Result) { r.fired++ }

// settle steps the engine until want operations have completed. Background
// tickers keep the queue non-empty, so it cannot simply drain.
func (r *storeRig) settle(want int) error {
	for r.fired < want {
		if !r.engine.Step() {
			return fmt.Errorf("engine drained with %d of %d operations outstanding", r.fired, want)
		}
	}
	return nil
}

// storeOpNs is one complete WriteAs or ReadAs (coordinator, ring lookup,
// replica fan-out, acks, client callback), settled before the next.
func storeOpNs(write bool, n int) (ns, allocs float64, err error) {
	r, err := newStoreRig()
	if err != nil {
		return 0, 0, err
	}
	for _, k := range r.keys { // populate the keyspace
		r.st.WriteAs(0, k, r.done)
	}
	if err := r.settle(len(r.keys)); err != nil {
		return 0, 0, err
	}
	base := r.fired
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if write {
			r.st.WriteAs(0, r.keys[i%len(r.keys)], r.done)
		} else {
			r.st.ReadAs(0, r.keys[i%len(r.keys)], r.done)
		}
		if err := r.settle(base + i + 1); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// monitorSnapshotUs times Monitor.Snapshot after each batch of 64 client
// operations routed through the monitor; only the Snapshot call is timed.
func monitorSnapshotUs(n int) (float64, error) {
	r, err := newStoreRig()
	if err != nil {
		return 0, err
	}
	mon, err := monitor.New(monitor.DefaultConfig(), r.engine, r.st, r.cl)
	if err != nil {
		return 0, fmt.Errorf("monitor driver: %w", err)
	}
	var total time.Duration
	for i := 0; i < n; i++ {
		for j := 0; j < 64; j++ {
			k := r.keys[(i*64+j)%len(r.keys)]
			if j%2 == 0 {
				mon.Write(k, r.done)
			} else {
				mon.Read(k, r.done)
			}
		}
		if err := r.settle((i + 1) * 64); err != nil {
			return 0, err
		}
		t0 := time.Now()
		_ = mon.Snapshot()
		total += time.Since(t0)
	}
	return float64(total) / float64(time.Microsecond) / float64(n), nil
}
