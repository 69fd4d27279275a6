package monitor

import (
	"errors"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/metrics"
	"autonosql/internal/sim"
	"autonosql/internal/store"
	"autonosql/internal/tenant"
)

// Config configures a Monitor.
type Config struct {
	// UseActive enables the read-after-write prober.
	UseActive bool
	// UsePassive enables coordinator-side observation of replica acks.
	UsePassive bool
	// ProbeRate is the number of active probes started per second.
	ProbeRate float64
	// ProbePollInterval is the delay between successive reads of a probe key.
	ProbePollInterval time.Duration
	// ProbeTimeout abandons a probe that never observes its write.
	ProbeTimeout time.Duration
}

const (
	// windowSamples is the number of recent window estimates retained for
	// quantile queries.
	windowSamples = 512
	// latencySamples is the number of recent client latencies retained per
	// operation kind.
	latencySamples = 4096
)

// DefaultConfig enables both techniques with one probe per second.
func DefaultConfig() Config {
	return Config{
		UseActive:         true,
		UsePassive:        true,
		ProbeRate:         1,
		ProbePollInterval: 5 * time.Millisecond,
		ProbeTimeout:      10 * time.Second,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ProbePollInterval <= 0 {
		c.ProbePollInterval = d.ProbePollInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = d.ProbeTimeout
	}
	return c
}

// Snapshot is the periodic view of the system the controller works from. All
// durations are expressed in seconds.
type Snapshot struct {
	At       time.Duration
	Interval time.Duration

	// Inconsistency-window estimate.
	WindowMean    float64
	WindowP50     float64
	WindowP95     float64
	WindowP99     float64
	WindowSamples int

	// Client-observed performance over the interval.
	ReadLatencyP99    float64
	WriteLatencyP99   float64
	ObservedOpsPerSec float64
	ErrorRate         float64

	// Infrastructure utilisation over the interval.
	MeanUtilization float64
	MaxUtilization  float64

	// Monitoring overhead.
	ProbeOpsPerSec        float64
	ProbeOverheadFraction float64
	// ProbeFailures is the cumulative number of probes whose write was
	// rejected outright (crashed or partitioned store). A rising count tells
	// the controller the window estimate is censored, not healthy.
	ProbeFailures uint64

	// Current configuration, as the controller's knowledge of the plant.
	ClusterSize       int
	ReplicationFactor int
	ReadConsistency   store.ConsistencyLevel
	WriteConsistency  store.ConsistencyLevel

	// Tenants carries the per-tenant signals of a multi-tenant scenario,
	// one per declared tenant, expressed against each tenant's own SLA
	// class. It is filled by the scenario's sampling loop (the monitor has
	// no tenant knowledge of its own) and empty in single-tenant runs; the
	// tenant-aware controller acts on the worst penalty-weighted entry
	// instead of the aggregate estimate when it is non-empty.
	Tenants []tenant.Signal
}

// Monitor gathers estimates and exposes Snapshots. It implements
// workload.Target so untagged client traffic can be routed through it, and
// store.Observer so passive estimation can piggyback on coordinator acks.
// Tenant runtimes forward their traffic to the store themselves and record it
// into the monitor's client view (see Client).
type Monitor struct {
	cfg     Config
	engine  *sim.Engine
	store   *store.Store
	cluster *cluster.Cluster

	utilSampler *cluster.UtilizationSampler
	prober      *Prober

	windowEst *metrics.WindowedStat
	// client is the aggregate view of client operations.
	client *metrics.IntervalRecorder

	probeOpsTotal  uint64
	probeOpsPrev   uint64
	lastSnapshotAt time.Duration

	// windowQuantiles is the reused result buffer for the batched window
	// quantile query issued on every snapshot.
	windowQuantiles [3]float64
}

// snapshotWindowQs are the window quantiles every snapshot reports, queried
// in one batch so the window sample buffer is sorted once per interval.
var snapshotWindowQs = []float64{0.50, 0.95, 0.99}

var (
	_ store.Observer = (*Monitor)(nil)
)

// New creates a monitor for the given store and cluster. If active probing
// is enabled the prober starts immediately.
func New(cfg Config, engine *sim.Engine, st *store.Store, cl *cluster.Cluster) (*Monitor, error) {
	if engine == nil || st == nil || cl == nil {
		return nil, errors.New("monitor: engine, store and cluster are required")
	}
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:         cfg,
		engine:      engine,
		store:       st,
		cluster:     cl,
		utilSampler: cluster.NewUtilizationSampler(cl),
		windowEst:   metrics.NewWindowedStat(windowSamples),
		client:      metrics.NewIntervalRecorder(latencySamples),
	}
	if cfg.UsePassive {
		st.Subscribe(m)
	}
	if cfg.UseActive && cfg.ProbeRate > 0 {
		p, err := NewProber(ProberConfig{
			Rate:         cfg.ProbeRate,
			PollInterval: cfg.ProbePollInterval,
			Timeout:      cfg.ProbeTimeout,
		}, engine, st, m.onProbeEstimate)
		if err != nil {
			return nil, err
		}
		m.prober = p
	}
	return m, nil
}

// Stop halts background probing.
func (m *Monitor) Stop() {
	if m.prober != nil {
		m.prober.Stop()
	}
}

// Client returns the monitor's aggregate view of client operations. Tenant
// runtimes record every operation they forward to the store into it, with
// the store-observed latency, so the controller's aggregate view covers all
// client traffic.
func (m *Monitor) Client() *metrics.IntervalRecorder { return m.client }

// Read implements workload.Target: it forwards to the store and records the
// client-observed outcome before handing it to cb (which may be nil).
func (m *Monitor) Read(key store.Key, cb func(store.Result)) {
	m.client.Issue()
	m.store.Read(key, m.completion(false, cb))
}

// Write implements workload.Target, mirroring Read.
func (m *Monitor) Write(key store.Key, cb func(store.Result)) {
	m.client.Issue()
	m.store.Write(key, m.completion(true, cb))
}

// completion wraps cb with the recording of one untagged operation's outcome.
func (m *Monitor) completion(write bool, cb func(store.Result)) func(store.Result) {
	return func(r store.Result) {
		m.client.Complete(write, r.Latency, r.Err)
		if cb != nil {
			cb(r)
		}
	}
}

// ObserveWrite implements store.Observer: the spread between the client
// acknowledgement and the last replica acknowledgement is a zero-cost
// estimate of the write's inconsistency window.
func (m *Monitor) ObserveWrite(o store.WriteObservation) {
	spread := o.LastAckAt - o.AckedAt
	if spread < 0 {
		spread = 0
	}
	m.windowEst.Observe(spread.Seconds())
}

// onProbeEstimate records an active-probe window estimate along with the
// number of operations the probe consumed.
func (m *Monitor) onProbeEstimate(windowSeconds float64, opsUsed int) {
	m.windowEst.Observe(windowSeconds)
	m.probeOpsTotal += uint64(opsUsed)
}

// WindowQuantile returns the current q-quantile of the window estimate in
// seconds.
func (m *Monitor) WindowQuantile(q float64) float64 { return m.windowEst.Quantile(q) }

// ProbeOps returns the cumulative number of operations issued by the active
// prober.
func (m *Monitor) ProbeOps() uint64 { return m.probeOpsTotal }

// Snapshot builds the controller-facing view of the last interval and
// resets the interval accumulators.
func (m *Monitor) Snapshot() Snapshot {
	now := m.engine.Now()
	interval := now - m.lastSnapshotAt
	meanU, maxU := m.utilSampler.Sample(now)

	client := m.client.Close(interval)
	probeOps := m.probeOpsTotal - m.probeOpsPrev
	m.probeOpsPrev = m.probeOpsTotal
	m.lastSnapshotAt = now

	wq := m.windowEst.Quantiles(snapshotWindowQs, m.windowQuantiles[:0])
	snap := Snapshot{
		At:                now,
		Interval:          interval,
		WindowMean:        m.windowEst.Mean(),
		WindowP50:         wq[0],
		WindowP95:         wq[1],
		WindowP99:         wq[2],
		WindowSamples:     m.windowEst.Count(),
		ReadLatencyP99:    client.ReadLatencyP99,
		WriteLatencyP99:   client.WriteLatencyP99,
		ObservedOpsPerSec: client.OpsPerSec,
		ErrorRate:         client.ErrorRate,
		MeanUtilization:   meanU,
		MaxUtilization:    maxU,
		ClusterSize:       m.cluster.Size(),
		ReplicationFactor: m.store.ReplicationFactor(),
		ReadConsistency:   m.store.ReadConsistency(),
		WriteConsistency:  m.store.WriteConsistency(),
	}
	if m.prober != nil {
		snap.ProbeFailures = m.prober.Failed()
	}
	if interval > 0 {
		snap.ProbeOpsPerSec = float64(probeOps) / interval.Seconds()
	}
	if total := client.Ops + probeOps; total > 0 {
		snap.ProbeOverheadFraction = float64(probeOps) / float64(total)
	}
	return snap
}
