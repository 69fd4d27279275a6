package store

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/metrics"
	"autonosql/internal/obs"
	"autonosql/internal/sim"
)

// Config is the static configuration of the store. The consistency-related
// fields (replication factor, read/write consistency levels) are the knobs
// the paper's autonomous system adjusts at run time; they can be changed
// later through the Set* methods.
type Config struct {
	// ReplicationFactor is the number of replicas per key.
	ReplicationFactor int
	// ReadConsistency is the consistency level applied to reads.
	ReadConsistency ConsistencyLevel
	// WriteConsistency is the consistency level applied to writes.
	WriteConsistency ConsistencyLevel
	// ReadRepair repairs stale replicas touched by a read in the background.
	ReadRepair bool
	// HintedHandoff queues writes destined for unavailable replicas and
	// delivers them when the replica returns.
	HintedHandoff bool
	// AntiEntropyInterval is the period of the background repair process; a
	// zero value disables anti-entropy.
	AntiEntropyInterval time.Duration
	// VirtualNodes is the number of ring tokens per node.
	VirtualNodes int
	// ReadRepairDelay is the extra delay before a read-repair mutation is
	// applied to a stale replica.
	ReadRepairDelay time.Duration
	// HintDeliveryDelay is the spacing between queued hint deliveries after
	// a replica recovers.
	HintDeliveryDelay time.Duration
	// MutationDropTimeout mirrors the dropped-mutation behaviour of
	// Dynamo-style stores: a replicated mutation that cannot be applied by a
	// replica within this delay is dropped and turned into a hint, to be
	// redelivered later. This is the mechanism that makes the inconsistency
	// window blow up when replicas are overloaded.
	MutationDropTimeout time.Duration
	// HintRetryInterval is how often queued hints for live replicas are
	// retried (dropped mutations are redelivered on this cadence, in addition
	// to the anti-entropy sweep).
	HintRetryInterval time.Duration
	// NominalNetworkOpsPerSec calibrates how much replication traffic the
	// network absorbs before replication itself causes congestion.
	NominalNetworkOpsPerSec float64
}

// DefaultConfig is the Cassandra-like configuration used by the experiments:
// RF=3, ONE/ONE consistency, read repair and hinted handoff enabled, and a
// 60 s anti-entropy sweep.
func DefaultConfig() Config {
	return Config{
		ReplicationFactor:       3,
		ReadConsistency:         One,
		WriteConsistency:        One,
		ReadRepair:              true,
		HintedHandoff:           true,
		AntiEntropyInterval:     60 * time.Second,
		VirtualNodes:            defaultVirtualNodes,
		ReadRepairDelay:         2 * time.Millisecond,
		HintDeliveryDelay:       500 * time.Microsecond,
		MutationDropTimeout:     time.Second,
		HintRetryInterval:       5 * time.Second,
		NominalNetworkOpsPerSec: 60000,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = d.ReplicationFactor
	}
	if c.ReadConsistency == 0 {
		c.ReadConsistency = d.ReadConsistency
	}
	if c.WriteConsistency == 0 {
		c.WriteConsistency = d.WriteConsistency
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = d.VirtualNodes
	}
	if c.ReadRepairDelay <= 0 {
		c.ReadRepairDelay = d.ReadRepairDelay
	}
	if c.HintDeliveryDelay <= 0 {
		c.HintDeliveryDelay = d.HintDeliveryDelay
	}
	if c.MutationDropTimeout <= 0 {
		c.MutationDropTimeout = d.MutationDropTimeout
	}
	if c.HintRetryInterval <= 0 {
		c.HintRetryInterval = d.HintRetryInterval
	}
	if c.NominalNetworkOpsPerSec <= 0 {
		c.NominalNetworkOpsPerSec = d.NominalNetworkOpsPerSec
	}
	return c
}

// Result is delivered to the caller's callback when an operation completes.
type Result struct {
	Kind        OpKind
	Key         Key
	Err         error
	IssuedAt    time.Duration
	CompletedAt time.Duration
	Latency     time.Duration
	// Version is the logical version written (for writes) or observed (for
	// reads). Clients can compare versions across their own operations to
	// measure consistency from the outside, exactly like the read-after-write
	// probes the paper proposes.
	Version uint64
	// Stale marks a read that returned a version older than the newest
	// acknowledged write of that key (ground truth, used for evaluation).
	Stale bool
}

// WriteObservation is what a coordinator can legitimately observe about the
// propagation of one of its writes: when the client was acknowledged and
// when the last replica acknowledgement arrived. Passive monitors build
// inconsistency-window estimates from these, without access to simulator
// ground truth.
type WriteObservation struct {
	IssuedAt  time.Duration
	AckedAt   time.Duration
	LastAckAt time.Duration
	Replicas  int
	Acked     int
}

// Observer receives coordinator-level observations. Monitors register
// observers; the store invokes them on the simulation event loop.
type Observer interface {
	ObserveWrite(WriteObservation)
}

// GroundTruth is the part of the cumulative ground truth the store keeps for
// every owner: the aggregate (in Stats) and each tagged tenant (in
// TenantGroundTruth).
type GroundTruth struct {
	Reads         uint64
	Writes        uint64
	ReadFailures  uint64
	WriteFailures uint64
	StaleReads    uint64

	ReadLatency  metrics.Snapshot
	WriteLatency metrics.Snapshot
	// Window summarises the true inconsistency window of acknowledged
	// writes, in seconds.
	Window metrics.Snapshot
}

// Stats is a snapshot of the store's cumulative ground-truth statistics.
type Stats struct {
	GroundTruth
	ReadRepairs    uint64
	HintsQueued    uint64
	HintsDelivered uint64
	// DroppedMutations counts replicated mutations a replica could not apply
	// within the mutation-drop timeout; they are converted into hints.
	DroppedMutations uint64
	LostUpdates      uint64
	AntiEntropyRan   uint64
}

// record is one owner's ground truth. The store keeps one for the aggregate
// and one per registered tenant; a tenant's record chains to the aggregate's
// through parent, so every recording method feeds both with one call. The
// per-kind arrays are indexed by OpKind-OpRead.
type record struct {
	parent *record

	ops        [2]metrics.Counter
	failures   [2]metrics.Counter
	staleReads metrics.Counter
	// shedOps counts operations admission control rejected before they
	// reached the store; only tenant records count them (see TenantShed).
	shedOps metrics.Counter

	latency      [2]*metrics.Histogram
	windowHist   *metrics.Histogram
	recentWindow *metrics.WindowedStat
}

// newRecord creates a record whose recent-window quantiles cover the last
// recent writes.
func newRecord(parent *record, recent int) *record {
	return &record{
		parent:       parent,
		latency:      [2]*metrics.Histogram{metrics.NewHistogram(0), metrics.NewHistogram(0)},
		windowHist:   metrics.NewHistogram(0),
		recentWindow: metrics.NewWindowedStat(recent),
	}
}

// issue counts an operation the store accepted.
func (r *record) issue(kind OpKind) {
	for ; r != nil; r = r.parent {
		r.ops[kind-OpRead].Inc()
	}
}

// fail counts a failed operation.
func (r *record) fail(kind OpKind) {
	for ; r != nil; r = r.parent {
		r.failures[kind-OpRead].Inc()
	}
}

// complete records a successful operation's latency and whether a read was
// stale.
func (r *record) complete(kind OpKind, latency time.Duration, stale bool) {
	for ; r != nil; r = r.parent {
		if stale {
			r.staleReads.Inc()
		}
		r.latency[kind-OpRead].ObserveDuration(latency)
	}
}

// window records an acknowledged write's true inconsistency window.
func (r *record) window(w time.Duration) {
	for ; r != nil; r = r.parent {
		r.windowHist.ObserveDuration(w)
		r.recentWindow.Observe(w.Seconds())
	}
}

// snapshot summarises the record. It sorts the histograms' reservoirs in
// place (see metrics.Histogram.Quantile).
func (r *record) snapshot() GroundTruth {
	return GroundTruth{
		Reads:         r.ops[0].Value(),
		Writes:        r.ops[1].Value(),
		ReadFailures:  r.failures[0].Value(),
		WriteFailures: r.failures[1].Value(),
		StaleReads:    r.staleReads.Value(),
		ReadLatency:   r.latency[0].Snapshot(),
		WriteLatency:  r.latency[1].Snapshot(),
		Window:        r.windowHist.Snapshot(),
	}
}

// Store is the simulated eventually-consistent database.
type Store struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	rng     *rand.Rand

	cfg     Config
	rf      int
	readCL  ConsistencyLevel
	writeCL ConsistencyLevel

	ring        *Ring
	replicas    map[cluster.NodeID]*replicaState
	latestAcked map[Key]version
	nextVersion version

	pendingHints map[cluster.NodeID][]pendingApply

	observers []Observer

	// all is the aggregate ground truth. tenants holds the registered
	// tenants' records (index id-1), each chained to all; nil in untagged
	// single-tenant mode.
	all     *record
	tenants []*record

	// Placement (class-aware replica selection). placements holds one entry
	// per pinned class, in pin order (empty = placement inactive and every
	// selection path identical to the pre-placement code); dedicated is the
	// sorted union of every class's pool; tenantPool maps, by id-1, each
	// tagged tenant to its class's placements index + 1 (0 = unpinned).
	// keyTenant records which tenant last wrote each key — only once
	// EnablePlacementTracking has run, so scenarios that never allow
	// placement pay nothing — and lets repair paths converge a key onto the
	// same biased replica set reads contact.
	placements []classPlacement
	dedicated  []cluster.NodeID
	tenantPool []int
	keyTenant  map[Key]TenantID
	// coordScratch backs the per-operation preferred-coordinator pool under
	// an active placement.
	coordScratch []*cluster.Node

	// tracer, when set, records sampled per-operation span trees. Nil (the
	// default) keeps every tracing branch off the hot path.
	tracer *obs.Tracer

	// Per-operation scratch buffers. The read/write hot path resolves a
	// preference list and partitions it into live/down replicas for every
	// operation; reusing these buffers keeps that path allocation-free. They
	// are only valid within one synchronous call chain — anything that must
	// survive an event boundary is copied into the operation's state.
	replicaScratch []cluster.NodeID
	liveScratch    []cluster.NodeID
	downScratch    []cluster.NodeID
	hintIDScratch  []cluster.NodeID

	// store-wide ground-truth counters
	readRepairs      metrics.Counter
	hintsQueued      metrics.Counter
	hintsDelivered   metrics.Counter
	droppedMutations metrics.Counter
	lostUpdates      metrics.Counter
	aeRuns           metrics.Counter

	// replication-load feedback into the network model
	writesSinceTick uint64
	loadTicker      *sim.Ticker
	aeTicker        *sim.Ticker
	hintTicker      *sim.Ticker

	closed bool
}

type pendingApply struct {
	key     Key
	ver     version
	tracker *writeTracker
	// origin is the coordinator that queued the hint. Under a network
	// partition a hint replays only when its origin's side can reach the
	// target: a minority-side coordinator's writes must stay invisible to the
	// majority until the heal.
	origin cluster.NodeID
}

// writeTracker follows a single acknowledged write until every replica in
// its preference list has applied it, at which point the true inconsistency
// window is recorded.
type writeTracker struct {
	store     *Store
	key       Key
	ver       version
	rec       *record
	ackAt     time.Duration
	remaining int
	lastApply time.Duration
	resolved  bool
	recorded  bool
	// trace closes the write's sampled span tree at the SLA-accounting
	// terminal; nil for unsampled writes.
	trace *obs.OpTrace
}

// New creates a store on top of the given cluster and registers for
// membership changes. All currently available nodes join the ring.
func New(cfg Config, engine *sim.Engine, cl *cluster.Cluster, rnd *sim.RandSource) (*Store, error) {
	if engine == nil || cl == nil || rnd == nil {
		return nil, errors.New("store: engine, cluster and rand source are required")
	}
	cfg = cfg.withDefaults()
	s := &Store{
		engine:       engine,
		cluster:      cl,
		rng:          rnd.Stream("store"),
		cfg:          cfg,
		rf:           cfg.ReplicationFactor,
		readCL:       cfg.ReadConsistency,
		writeCL:      cfg.WriteConsistency,
		ring:         NewRing(cfg.VirtualNodes),
		replicas:     make(map[cluster.NodeID]*replicaState),
		latestAcked:  make(map[Key]version),
		pendingHints: make(map[cluster.NodeID][]pendingApply),
		all:          newRecord(nil, 2048),
	}
	for _, n := range cl.AvailableNodes() {
		s.ring.Add(n.ID())
		s.replicas[n.ID()] = newReplicaState(n.ID())
	}
	cl.Subscribe(s)

	var err error
	s.loadTicker, err = sim.NewTicker(engine, time.Second, s.updateReplicationLoad)
	if err != nil {
		return nil, fmt.Errorf("store: replication load ticker: %w", err)
	}
	if cfg.AntiEntropyInterval > 0 {
		s.aeTicker, err = sim.NewTicker(engine, cfg.AntiEntropyInterval, s.runAntiEntropy)
		if err != nil {
			return nil, fmt.Errorf("store: anti-entropy ticker: %w", err)
		}
	}
	if cfg.HintedHandoff {
		s.hintTicker, err = sim.NewTicker(engine, cfg.HintRetryInterval, s.retryHints)
		if err != nil {
			return nil, fmt.Errorf("store: hint retry ticker: %w", err)
		}
	}
	return s, nil
}

var _ cluster.MembershipListener = (*Store)(nil)

// Close stops the store's background activities. Pending operations still
// complete; new operations fail with ErrStopped.
func (s *Store) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.loadTicker.Stop()
	if s.aeTicker != nil {
		s.aeTicker.Stop()
	}
	if s.hintTicker != nil {
		s.hintTicker.Stop()
	}
}

// SetTracer attaches (or, with nil, detaches) an operation tracer. Sampled
// operations record a span tree from dispatch to SLA accounting; unsampled
// operations pay one counter increment and the disabled path is untouched.
func (s *Store) SetTracer(t *obs.Tracer) { s.tracer = t }

// Subscribe registers an observer for coordinator-level write observations.
func (s *Store) Subscribe(o Observer) {
	if o != nil {
		s.observers = append(s.observers, o)
	}
}

// ReplicationFactor returns the current replication factor.
func (s *Store) ReplicationFactor() int { return s.rf }

// ReadConsistency returns the current read consistency level.
func (s *Store) ReadConsistency() ConsistencyLevel { return s.readCL }

// WriteConsistency returns the current write consistency level.
func (s *Store) WriteConsistency() ConsistencyLevel { return s.writeCL }

// SetReadConsistency changes the consistency level for subsequent reads.
func (s *Store) SetReadConsistency(cl ConsistencyLevel) {
	if cl >= One && cl <= All {
		s.readCL = cl
	}
}

// SetWriteConsistency changes the consistency level for subsequent writes.
func (s *Store) SetWriteConsistency(cl ConsistencyLevel) {
	if cl >= One && cl <= All {
		s.writeCL = cl
	}
}

// SetReplicationFactor changes the number of replicas per key for subsequent
// writes. Increasing the factor triggers a background rebalance: existing
// nodes take on streaming load for a while and replication traffic rises,
// which is why the controller must apply this action judiciously.
func (s *Store) SetReplicationFactor(rf int) error {
	if rf < 1 {
		return fmt.Errorf("store: replication factor %d out of range", rf)
	}
	if rf == s.rf {
		return nil
	}
	grow := rf > s.rf
	s.rf = rf
	if grow {
		s.startRebalance()
	}
	return nil
}

// startRebalance imposes a temporary streaming load on available nodes and
// the network, modelling the data movement caused by growing the replica
// count, then repairs all keys so new replicas converge.
func (s *Store) startRebalance() {
	const rebalanceDuration = 45 * time.Second
	for _, n := range s.cluster.AvailableNodes() {
		n.SetRebalanceLoad(0.25)
	}
	s.cluster.Network().SetReplicationLoad(clampF(s.cluster.Network().ReplicationLoad()+0.3, 0, 1))
	s.engine.After(rebalanceDuration, func(time.Duration) {
		for _, n := range s.cluster.AvailableNodes() {
			n.SetRebalanceLoad(0)
		}
		s.repairAll()
	})
}

// NodeJoined implements cluster.MembershipListener. By the time the cluster
// reports the node as joined it has finished bootstrapping, which includes
// streaming the data for the ranges it now owns: its replica state is brought
// up to the latest acknowledged versions of those keys, and any hints queued
// for it while it was joining are delivered.
func (s *Store) NodeJoined(id cluster.NodeID) {
	if _, ok := s.replicas[id]; !ok {
		s.replicas[id] = newReplicaState(id)
	}
	s.ring.Add(id)
	s.streamOwnedRanges(id)
	s.deliverHints(id)
}

// streamOwnedRanges models the data a bootstrapping node streamed from its
// peers: every key the node is now a replica for is applied at its latest
// acknowledged version. Under an active placement, ownership follows the
// biased per-tenant preference lists.
func (s *Store) streamOwnedRanges(id cluster.NodeID) {
	rep, ok := s.replicas[id]
	if !ok {
		return
	}
	for key, ver := range s.latestAcked {
		for _, owner := range s.replicasForRepair(key) {
			if owner == id {
				rep.apply(key, ver)
				break
			}
		}
	}
}

// NodeLeft implements cluster.MembershipListener. The node leaves the ring;
// write trackers waiting on it are released so windows stay well defined. A
// departing dedicated node also leaves the placement pool.
func (s *Store) NodeLeft(id cluster.NodeID) {
	s.ring.Remove(id)
	if slices.Contains(s.dedicated, id) {
		for pi := range s.placements {
			if i := slices.Index(s.placements[pi].nodes, id); i >= 0 {
				s.placements[pi].nodes = slices.Delete(s.placements[pi].nodes, i, i+1)
			}
		}
		s.rebuildDedicated()
	}
	if hints, ok := s.pendingHints[id]; ok {
		for _, h := range hints {
			if h.tracker != nil {
				h.tracker.discount(s.engine.Now())
			}
		}
		delete(s.pendingHints, id)
	}
}

// NodeFailed implements cluster.MembershipListener. A failed node keeps its
// ring position; writes destined for it accumulate as hints until it
// recovers or anti-entropy repairs it.
func (s *Store) NodeFailed(cluster.NodeID) {}

// NodeRecovered implements cluster.MembershipListener. Queued hints are
// flushed to the recovered replica.
func (s *Store) NodeRecovered(id cluster.NodeID) {
	s.deliverHints(id)
}

// Stats returns a snapshot of cumulative ground-truth statistics.
func (s *Store) Stats() Stats {
	return Stats{
		GroundTruth:      s.all.snapshot(),
		ReadRepairs:      s.readRepairs.Value(),
		HintsQueued:      s.hintsQueued.Value(),
		HintsDelivered:   s.hintsDelivered.Value(),
		DroppedMutations: s.droppedMutations.Value(),
		LostUpdates:      s.lostUpdates.Value(),
		AntiEntropyRan:   s.aeRuns.Value(),
	}
}

// RecentWindowQuantile returns the q-quantile (in seconds) of the true
// inconsistency window over the most recent writes. Experiments use it as
// ground truth; the controller does not.
func (s *Store) RecentWindowQuantile(q float64) float64 {
	return s.all.recentWindow.Quantile(q)
}

// KeyCount returns the number of distinct keys acknowledged so far.
func (s *Store) KeyCount() int { return len(s.latestAcked) }

// ReplicaKeyCount returns how many keys the given node currently holds.
func (s *Store) ReplicaKeyCount(id cluster.NodeID) int {
	if r, ok := s.replicas[id]; ok {
		return r.keys()
	}
	return 0
}

// updateReplicationLoad feeds the store's recent write fan-out back into the
// network model as replication-induced congestion.
func (s *Store) updateReplicationLoad(time.Duration) {
	writes := s.writesSinceTick
	s.writesSinceTick = 0
	fanout := float64(s.rf - 1)
	if fanout < 0 {
		fanout = 0
	}
	load := float64(writes) * fanout / s.cfg.NominalNetworkOpsPerSec
	s.cluster.Network().SetReplicationLoad(clampF(load, 0, 1))
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
