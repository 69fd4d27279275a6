package store

import (
	"slices"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/obs"
)

// The read and write paths are fully event-driven: every hop (client ->
// coordinator, coordinator -> replica, replica -> coordinator, coordinator ->
// client) is a scheduled event, and node work is enqueued at the virtual time
// it actually arrives at the node. This keeps the per-node queue model
// (a single busy-until executor) consistent: work is offered in arrival
// order, so queueing delays emerge from load instead of from event-creation
// order.

// writeState tracks one in-flight write at the coordinator: how many replica
// acknowledgements it still needs, how many can still arrive, and when the
// client was (or will be) acknowledged. The window tracker, the live replica
// list and the per-ack handler are embedded so one allocation covers the
// whole per-write bookkeeping.
type writeState struct {
	store    *Store
	key      Key
	ver      version
	issuedAt time.Duration
	rec      *record
	cb       func(Result)
	// tracker follows the write until every replica applied it; it is
	// embedded by value and handed around as &w.tracker.
	tracker writeTracker
	// coord and live capture the coordinator and live preference list between
	// the client leg and the coordinator fan-out.
	coord *cluster.Node
	live  []cluster.NodeID
	// liveBuf backs live for the common replication factors without a second
	// allocation.
	liveBuf [8]cluster.NodeID
	// fanout holds one pre-bound dispatch slot per live replica, so the
	// coordinator fan-out schedules package-level ArgHandler events instead
	// of allocating a closure per replica. fanoutBuf backs it inline for the
	// common replication factors.
	fanout    []writeFanout
	fanoutBuf [8]writeFanout
	// trace is the sampled span tree for this write, nil for unsampled
	// operations (and always nil with tracing off).
	trace *obs.OpTrace

	required int
	// possible is the number of replicas that can still acknowledge (live
	// replicas whose mutation has not been dropped).
	possible     int
	acked        int
	ackDecidedAt time.Duration
	lastAckAt    time.Duration
	replicas     int

	clientAcked bool
	failed      bool
	observed    bool
}

// writeFanout is the per-replica slot of a write's coordinator fan-out: it
// points back at the write so the package-level event handlers below can be
// scheduled with the engine's allocation-free AfterArg path.
type writeFanout struct {
	w  *writeState
	id cluster.NodeID
}

// Package-level ArgHandler trampolines for the write path. Using named
// functions (instead of per-event closures) keeps the fan-out hot path at a
// single allocation per write: the writeState itself.
func writeDispatchEvent(arg any, arrival time.Duration) {
	w := arg.(*writeState)
	w.store.coordinateWrite(w, arrival)
}

func writeAckEvent(arg any, at time.Duration) {
	arg.(*writeState).onAck(at)
}

func writeArriveEvent(arg any, arrive time.Duration) {
	f := arg.(*writeFanout)
	f.w.store.applyOnReplica(f, arrive)
}

func writeApplyEvent(arg any, applied time.Duration) {
	f := arg.(*writeFanout)
	w := f.w
	if rep, ok := w.store.replicas[f.id]; ok {
		rep.apply(w.key, w.ver)
	}
	w.trace.Add(applied, "replica-apply", int(f.id))
	w.tracker.applied(applied)
}

func writeClientAckEvent(arg any, at time.Duration) {
	w := arg.(*writeState)
	s := w.store
	if cur, ok := s.latestAcked[w.key]; !ok || w.ver > cur {
		s.latestAcked[w.key] = w.ver
	}
	w.trace.Add(at, "client-ack", 0)
	w.tracker.setAck(at)
	latency := at - w.issuedAt
	w.rec.complete(OpWrite, latency, false)
	if w.cb != nil {
		w.cb(Result{
			Kind:        OpWrite,
			Key:         w.key,
			IssuedAt:    w.issuedAt,
			CompletedAt: at,
			Latency:     latency,
			Version:     uint64(w.ver),
		})
	}
}

// onAck records one replica acknowledgement arriving at the coordinator.
func (w *writeState) onAck(at time.Duration) {
	if w.failed {
		return
	}
	w.acked++
	if at > w.lastAckAt {
		w.lastAckAt = at
	}
	w.trace.Add(at, "ack", 0)
	if !w.clientAcked && w.acked >= w.required {
		w.clientAcked = true
		w.ackDecidedAt = at
		w.trace.Add(at, "quorum", 0)
		w.store.completeWrite(w, at)
	}
	if w.acked >= w.possible {
		w.emitObservation()
	}
}

// onReplicaLost records that one replica will not acknowledge (dropped
// mutation, unreachable node). If the write can no longer reach its
// consistency level it fails with ErrUnavailable, mirroring a write-timeout.
func (w *writeState) onReplicaLost() {
	if w.failed {
		return
	}
	w.possible--
	if !w.clientAcked && w.possible < w.required {
		w.failed = true
		w.store.reject(w.rec, OpWrite, w.key, w.issuedAt, w.store.engine.Now(), ErrUnavailable, w.trace, w.cb)
		return
	}
	if w.clientAcked && w.acked >= w.possible {
		w.emitObservation()
	}
}

// emitObservation hands the coordinator-level view of the write to passive
// monitors once every reachable replica has acknowledged. Both timestamps are
// in the coordinator's frame: the moment the consistency level was satisfied
// and the moment the last reachable replica acknowledged.
func (w *writeState) emitObservation() {
	if w.observed || !w.clientAcked || w.acked == 0 {
		return
	}
	w.observed = true
	ob := WriteObservation{
		IssuedAt:  w.issuedAt,
		AckedAt:   w.ackDecidedAt,
		LastAckAt: w.lastAckAt,
		Replicas:  w.replicas,
		Acked:     w.acked,
	}
	for _, o := range w.store.observers {
		o.ObserveWrite(ob)
	}
}

// completeWrite acknowledges the client after the required replica
// acknowledgements have arrived at the coordinator.
func (s *Store) completeWrite(w *writeState, ackAtCoord time.Duration) {
	now := s.engine.Now()
	clientAck := ackAtCoord + s.cluster.Network().ClientToNode()
	delay := clientAck - now
	if delay < 0 {
		delay = 0
	}
	s.engine.AfterArg(delay, writeClientAckEvent, w)
}

// Write stores a new version of key and invokes cb when the client is
// acknowledged (or when the operation fails). The acknowledgement point is
// determined by the current write consistency level; remaining replicas
// converge asynchronously and the elapsed time until they do is recorded as
// the write's inconsistency window.
func (s *Store) Write(key Key, cb func(Result)) { s.WriteAs(0, key, cb) }

// WriteAs is Write with a tenant tag: the operation contributes to the
// tagged tenant's ground-truth statistics (latency, failures, inconsistency
// window) in addition to the aggregate set. Tag zero is the plain untagged
// write.
func (s *Store) WriteAs(tenant TenantID, key Key, cb func(Result)) {
	now := s.engine.Now()
	if s.closed {
		s.failOp(OpWrite, key, now, ErrStopped, cb)
		return
	}
	tr := s.beginTrace(true, key, now)
	rec := s.recordFor(tenant)
	coord, ok := s.pickCoordinatorTenant(tenant)
	if !ok {
		s.reject(rec, OpWrite, key, now, now, ErrNoNodes, tr, cb)
		return
	}
	replicaIDs := s.appendReplicasTenant(tenant, key)
	if len(replicaIDs) == 0 {
		s.reject(rec, OpWrite, key, now, now, ErrNoNodes, tr, cb)
		return
	}
	required := s.writeCL.Required(len(replicaIDs))
	live, down := s.partitionReplicas(coord.ID(), replicaIDs)
	if len(live) < required {
		s.reject(rec, OpWrite, key, now, now, ErrUnavailable, tr, cb)
		return
	}

	rec.issue(OpWrite)
	if s.keyTenant != nil && tenant > 0 {
		s.keyTenant[key] = tenant
	}
	s.writesSinceTick++
	s.nextVersion++
	ver := s.nextVersion

	state := &writeState{
		store:    s,
		key:      key,
		ver:      ver,
		issuedAt: now,
		rec:      rec,
		cb:       cb,
		coord:    coord,
		required: required,
		possible: len(live),
		replicas: len(replicaIDs),
	}
	state.trace = tr
	tr.Add(now, "dispatch", int(coord.ID()))
	state.tracker = writeTracker{
		store:     s,
		key:       key,
		ver:       ver,
		rec:       rec,
		remaining: len(replicaIDs),
		trace:     tr,
	}
	// live points into the per-operation scratch buffer, which the next
	// operation overwrites; keep a copy in the state's inline buffer.
	state.live = append(state.liveBuf[:0], live...)

	// Unreachable replicas get hints (or are dropped, counted as lost).
	for _, id := range down {
		s.queueHint(id, key, ver, &state.tracker, coord.ID())
	}

	// Client -> coordinator.
	clientLeg := s.cluster.Network().ClientToNode()
	s.engine.AfterArg(clientLeg, writeDispatchEvent, state)
}

// coordinateWrite runs on the coordinator once the client request arrives:
// the coordinator processes the mutation locally and fans it out to the other
// replicas.
func (s *Store) coordinateWrite(w *writeState, arrival time.Duration) {
	coordDelay, accepted := w.coord.Enqueue(arrival, cluster.ForegroundOp)
	if !accepted {
		w.failed = true
		w.trace.AddNote(arrival, "coordinate", int(w.coord.ID()), "reject")
		s.reject(w.rec, OpWrite, w.key, w.issuedAt, arrival, ErrUnavailable, w.trace, w.cb)
		return
	}
	coordDone := arrival + coordDelay
	w.trace.Add(coordDone, "coordinate", int(w.coord.ID()))
	net := s.cluster.Network()

	// Bind one fan-out slot per live replica before scheduling anything, so
	// slot addresses are stable when the handlers fire.
	w.fanout = w.fanoutBuf[:0]
	if len(w.live) > len(w.fanoutBuf) {
		w.fanout = make([]writeFanout, 0, len(w.live))
	}
	for _, id := range w.live {
		w.fanout = append(w.fanout, writeFanout{w: w, id: id})
	}

	for i, id := range w.live {
		f := &w.fanout[i]
		if id == w.coord.ID() {
			// The coordinator applies the mutation as part of processing it
			// and acknowledges itself immediately afterwards.
			s.engine.AfterArg(delayUntil(s.engine.Now(), coordDone), writeApplyEvent, f)
			s.engine.AfterArg(delayUntil(s.engine.Now(), coordDone), writeAckEvent, w)
			continue
		}
		sendLeg := net.NodeToNode()
		s.engine.AfterArg(delayUntil(s.engine.Now(), coordDone+sendLeg), writeArriveEvent, f)
	}
}

// applyOnReplica runs on a replica when a replicated mutation arrives. The
// mutation is applied unless it would be older than the drop timeout by the
// time the replica gets to it, in which case it is dropped and becomes a
// hint — the overload behaviour of Dynamo-style stores, and the mechanism
// that blows the inconsistency window up when replicas cannot keep up.
func (s *Store) applyOnReplica(f *writeFanout, arrive time.Duration) {
	w, id := f.w, f.id
	node, ok := s.cluster.Node(id)
	if !ok || !node.Available() || !s.cluster.Network().Reachable(w.coord.ID(), id) {
		// Down, removed, or a partition opened between dispatch and arrival:
		// the mutation cannot be delivered and becomes a hint.
		w.trace.AddNote(arrive, "replica-hint", int(id), "unreachable")
		s.queueHint(id, w.key, w.ver, &w.tracker, w.coord.ID())
		w.onReplicaLost()
		return
	}
	applyDelay, accepted := node.Enqueue(arrive, cluster.ReplicationApply)
	if !accepted {
		w.trace.AddNote(arrive, "replica-hint", int(id), "overload")
		s.queueHint(id, w.key, w.ver, &w.tracker, w.coord.ID())
		w.onReplicaLost()
		return
	}
	applyAt := arrive + applyDelay
	if applyAt-w.issuedAt > s.cfg.MutationDropTimeout {
		s.droppedMutations.Inc()
		w.trace.AddNote(arrive, "replica-hint", int(id), "drop-timeout")
		s.queueHint(id, w.key, w.ver, &w.tracker, w.coord.ID())
		w.onReplicaLost()
		return
	}
	w.trace.Add(arrive, "replica-arrive", int(id))
	s.engine.AfterArg(delayUntil(s.engine.Now(), applyAt), writeApplyEvent, f)
	ackAt := applyAt + s.cluster.Network().NodeToNode()
	s.engine.AfterArg(delayUntil(s.engine.Now(), ackAt), writeAckEvent, w)
}

// readState tracks one in-flight read at the coordinator. The coordinator,
// target list and contacted list are embedded (with inline backing arrays for
// the common consistency levels) so one allocation covers the whole read.
type readState struct {
	store    *Store
	key      Key
	issuedAt time.Duration
	rec      *record
	cb       func(Result)
	coord    *cluster.Node
	// targets is the preference-ordered set of replicas the read contacts.
	targets    []cluster.NodeID
	targetsBuf [8]cluster.NodeID
	// fanout mirrors writeState.fanout: one pre-bound slot per contacted
	// replica, so the read fan-out schedules no per-replica closures.
	fanout    []readFanout
	fanoutBuf [8]readFanout
	// trace is the sampled span tree for this read, nil for unsampled
	// operations (and always nil with tracing off).
	trace *obs.OpTrace

	required  int
	possible  int
	responses int

	freshest     version
	divergent    bool
	contacted    []cluster.NodeID
	contactedBuf [8]cluster.NodeID
	lastSeenAt   time.Duration
	done         bool
}

// readFanout is the per-replica slot of a read's coordinator fan-out.
type readFanout struct {
	r  *readState
	id cluster.NodeID
}

// Package-level ArgHandler trampolines for the read path, mirroring the
// write-path set above.
func readDispatchEvent(arg any, arrival time.Duration) {
	r := arg.(*readState)
	r.store.coordinateRead(r, arrival)
}

func readArriveEvent(arg any, arrive time.Duration) {
	f := arg.(*readFanout)
	f.r.store.readOnReplica(f, arrive)
}

// readRespondEvent fires when a replica's answer arrives back at the
// coordinator; the version is read at response time, as before.
func readRespondEvent(arg any, at time.Duration) {
	f := arg.(*readFanout)
	r := f.r
	v := version(0)
	if rep, ok := r.store.replicas[f.id]; ok {
		v = rep.read(r.key)
	}
	r.onResponse(f.id, v, at)
}

func readClientDoneEvent(arg any, at time.Duration) {
	r := arg.(*readState)
	s := r.store
	latest := s.latestAcked[r.key]
	stale := r.freshest < latest
	if stale {
		r.trace.AddNote(at, "client-done", 0, "stale")
	} else {
		r.trace.Add(at, "client-done", 0)
	}
	s.finishTrace(r.trace, at, nil)
	if s.cfg.ReadRepair && (r.divergent || stale) {
		s.scheduleReadRepair(r.key, r.contacted)
	}
	latency := at - r.issuedAt
	r.rec.complete(OpRead, latency, stale)
	if r.cb != nil {
		r.cb(Result{
			Kind:        OpRead,
			Key:         r.key,
			IssuedAt:    r.issuedAt,
			CompletedAt: at,
			Latency:     latency,
			Version:     uint64(r.freshest),
			Stale:       stale,
		})
	}
}

// onResponse records one replica's answer arriving back at the coordinator.
func (r *readState) onResponse(id cluster.NodeID, v version, at time.Duration) {
	if r.done {
		return
	}
	r.responses++
	r.contacted = append(r.contacted, id)
	if at > r.lastSeenAt {
		r.lastSeenAt = at
	}
	r.trace.Add(at, "replica-respond", int(id))
	if v != r.freshest && r.responses > 1 {
		r.divergent = true
	}
	if v > r.freshest {
		r.freshest = v
	}
	if r.responses >= r.required {
		r.done = true
		r.trace.Add(at, "quorum", 0)
		r.store.completeRead(r, at)
	}
}

// onReplicaLost records a contacted replica that will not answer.
func (r *readState) onReplicaLost() {
	if r.done {
		return
	}
	r.possible--
	if r.possible < r.required {
		r.done = true
		r.store.reject(r.rec, OpRead, r.key, r.issuedAt, r.store.engine.Now(), ErrUnavailable, r.trace, r.cb)
	}
}

// completeRead returns the merged result to the client.
func (s *Store) completeRead(r *readState, lastResponseAt time.Duration) {
	now := s.engine.Now()
	clientDone := lastResponseAt + s.cluster.Network().ClientToNode()
	s.engine.AfterArg(delayUntil(now, clientDone), readClientDoneEvent, r)
}

// Read fetches key and invokes cb with the freshest version observed among
// the replicas the read consistency level requires.
func (s *Store) Read(key Key, cb func(Result)) { s.ReadAs(0, key, cb) }

// ReadAs is Read with a tenant tag, mirroring WriteAs.
func (s *Store) ReadAs(tenant TenantID, key Key, cb func(Result)) {
	now := s.engine.Now()
	if s.closed {
		s.failOp(OpRead, key, now, ErrStopped, cb)
		return
	}
	tr := s.beginTrace(false, key, now)
	rec := s.recordFor(tenant)
	coord, ok := s.pickCoordinatorTenant(tenant)
	if !ok {
		s.reject(rec, OpRead, key, now, now, ErrNoNodes, tr, cb)
		return
	}
	replicaIDs := s.appendReplicasTenant(tenant, key)
	if len(replicaIDs) == 0 {
		s.reject(rec, OpRead, key, now, now, ErrNoNodes, tr, cb)
		return
	}
	required := s.readCL.Required(len(replicaIDs))
	live, _ := s.partitionReplicas(coord.ID(), replicaIDs)
	if len(live) < required {
		s.reject(rec, OpRead, key, now, now, ErrUnavailable, tr, cb)
		return
	}

	rec.issue(OpRead)
	state := &readState{
		store:    s,
		key:      key,
		issuedAt: now,
		rec:      rec,
		cb:       cb,
		coord:    coord,
		required: required,
		possible: required,
	}
	state.trace = tr
	tr.Add(now, "dispatch", int(coord.ID()))
	// Contact exactly `required` live replicas in preference order, as a
	// token-aware driver would. The scratch buffer is copied into the state's
	// inline array because it is overwritten by the next operation.
	state.targets = append(state.targetsBuf[:0], live[:required]...)
	state.contacted = state.contactedBuf[:0]

	clientLeg := s.cluster.Network().ClientToNode()
	s.engine.AfterArg(clientLeg, readDispatchEvent, state)
}

// coordinateRead runs on the coordinator once the client request arrives.
func (s *Store) coordinateRead(r *readState, arrival time.Duration) {
	coordDelay, accepted := r.coord.Enqueue(arrival, cluster.ForegroundOp)
	if !accepted {
		r.done = true
		r.trace.AddNote(arrival, "coordinate", int(r.coord.ID()), "reject")
		s.reject(r.rec, OpRead, r.key, r.issuedAt, arrival, ErrUnavailable, r.trace, r.cb)
		return
	}
	coordDone := arrival + coordDelay
	r.trace.Add(coordDone, "coordinate", int(r.coord.ID()))
	net := s.cluster.Network()

	r.fanout = r.fanoutBuf[:0]
	if len(r.targets) > len(r.fanoutBuf) {
		r.fanout = make([]readFanout, 0, len(r.targets))
	}
	for _, id := range r.targets {
		r.fanout = append(r.fanout, readFanout{r: r, id: id})
	}

	for i, id := range r.targets {
		f := &r.fanout[i]
		if id == r.coord.ID() {
			// The coordinator answers from its own replica once it has
			// processed the request.
			s.engine.AfterArg(delayUntil(s.engine.Now(), coordDone), readRespondEvent, f)
			continue
		}
		sendLeg := net.NodeToNode()
		s.engine.AfterArg(delayUntil(s.engine.Now(), coordDone+sendLeg), readArriveEvent, f)
	}
}

// readOnReplica runs on a replica when a read request arrives; the replica
// reports the version it holds once it has processed the request.
func (s *Store) readOnReplica(f *readFanout, arrive time.Duration) {
	r, id := f.r, f.id
	node, ok := s.cluster.Node(id)
	if !ok || !node.Available() || !s.cluster.Network().Reachable(r.coord.ID(), id) {
		r.trace.AddNote(arrive, "replica-lost", int(id), "unreachable")
		r.onReplicaLost()
		return
	}
	delay, accepted := node.Enqueue(arrive, cluster.ForegroundOp)
	if !accepted {
		r.trace.AddNote(arrive, "replica-lost", int(id), "overload")
		r.onReplicaLost()
		return
	}
	processAt := arrive + delay
	r.trace.Add(arrive, "replica-arrive", int(id))
	respondAt := processAt + s.cluster.Network().NodeToNode()
	s.engine.AfterArg(delayUntil(s.engine.Now(), respondAt), readRespondEvent, f)
}

// beginTrace fronts one operation past the tracer's sampler: a trace staged
// by an upstream layer (the tenant runtime, which already counted the op) is
// adopted, otherwise the sampler decides. Returns nil — and does no work —
// for unsampled operations or when tracing is off.
func (s *Store) beginTrace(write bool, key Key, now time.Duration) *obs.OpTrace {
	if s.tracer == nil {
		return nil
	}
	if tr, fronted := s.tracer.Handoff(); fronted {
		return tr
	}
	return s.tracer.Begin("", write, string(key), now)
}

// finishTrace closes a sampled span tree on a completion or failure path.
// Nil-safe on both the trace and the tracer, and idempotent per trace.
func (s *Store) finishTrace(tr *obs.OpTrace, at time.Duration, err error) {
	if tr == nil || s.tracer == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	s.tracer.Finish(tr, at, msg)
}

// reject fails an operation the store saw: the failure is counted in rec
// (and through it the aggregate), the trace closes at `at`, and cb gets the
// error after a minimal client round trip.
func (s *Store) reject(rec *record, kind OpKind, key Key, issued, at time.Duration, err error, tr *obs.OpTrace, cb func(Result)) {
	rec.fail(kind)
	s.finishTrace(tr, at, err)
	s.failOp(kind, key, issued, err, cb)
}

// failOp delivers a failure result after a minimal client round trip. The
// round trip is drawn whether or not there is a callback, so the store's
// random stream does not depend on what the caller passed.
func (s *Store) failOp(kind OpKind, key Key, issued time.Duration, err error, cb func(Result)) {
	delay := s.cluster.Network().ClientToNode() * 2
	if cb == nil {
		return
	}
	s.engine.After(delay, func(at time.Duration) {
		cb(Result{
			Kind:        kind,
			Key:         key,
			Err:         err,
			IssuedAt:    issued,
			CompletedAt: at,
			Latency:     at - issued,
		})
	})
}

// pickCoordinator selects a random available node to coordinate an
// operation, mirroring a client driver with a round-robin/token-aware
// policy.
func (s *Store) pickCoordinator() (*cluster.Node, bool) {
	nodes := s.cluster.AvailableNodes()
	if len(nodes) == 0 {
		return nil, false
	}
	return nodes[s.rng.Intn(len(nodes))], true
}

// appendReplicas resolves the key's preference list into the store's scratch
// buffer. The result is valid until the next operation; callers that need to
// retain it past an event boundary must copy it.
func (s *Store) appendReplicas(key Key) []cluster.NodeID {
	s.replicaScratch = s.ring.AppendReplicasFor(s.replicaScratch[:0], key, s.rf)
	return s.replicaScratch
}

// partitionReplicas splits a preference list into live and unavailable
// replica IDs from the point of view of the coordinating node: a replica is
// live only when it is up AND reachable from the coordinator under the
// current network partition. Both results live in per-store scratch buffers
// that the next operation overwrites.
func (s *Store) partitionReplicas(coord cluster.NodeID, ids []cluster.NodeID) (live, down []cluster.NodeID) {
	s.liveScratch = s.liveScratch[:0]
	s.downScratch = s.downScratch[:0]
	net := s.cluster.Network()
	for _, id := range ids {
		if n, ok := s.cluster.Node(id); ok && n.Available() && net.Reachable(coord, id) {
			s.liveScratch = append(s.liveScratch, id)
		} else {
			s.downScratch = append(s.downScratch, id)
		}
	}
	return s.liveScratch, s.downScratch
}

// delayUntil converts an absolute virtual time into a non-negative delay from
// now.
func delayUntil(now, at time.Duration) time.Duration {
	if at <= now {
		return 0
	}
	return at - now
}

// scheduleApply arranges for a replica to apply a version at the given
// virtual time and for the write tracker to learn about it.
func (s *Store) scheduleApply(id cluster.NodeID, key Key, ver version, at time.Duration, tracker *writeTracker) {
	s.engine.After(delayUntil(s.engine.Now(), at), func(applied time.Duration) {
		if rep, ok := s.replicas[id]; ok {
			rep.apply(key, ver)
		}
		if tracker != nil {
			tracker.applied(applied)
		}
	})
}

// maxPendingHintsPerNode bounds the hint backlog kept for one replica; real
// stores bound their hint windows the same way and fall back to repair once
// the backlog overflows.
const maxPendingHintsPerNode = 100000

// hintDeliveryCapacityShare is the fraction of a replica's throughput one
// hint-delivery round may consume. Replaying hints costs the same node work
// as regular replication applies, so an unthrottled replay would keep an
// already struggling replica saturated forever; real stores throttle hint
// delivery for exactly this reason.
const hintDeliveryCapacityShare = 0.15

// maxHintsPerDelivery is the absolute ceiling on hints replayed in one round.
const maxHintsPerDelivery = 20000

// queueHint records a mutation destined for an unavailable (or overloaded)
// replica. With hinted handoff disabled and no anti-entropy, the update is
// lost until a newer write arrives (counted as a lost update) and the tracker
// is discounted so the window stays defined.
func (s *Store) queueHint(id cluster.NodeID, key Key, ver version, tracker *writeTracker, origin cluster.NodeID) {
	if !s.cfg.HintedHandoff && s.cfg.AntiEntropyInterval <= 0 {
		s.lostUpdates.Inc()
		if tracker != nil {
			tracker.discount(s.engine.Now())
		}
		return
	}
	if len(s.pendingHints[id]) >= maxPendingHintsPerNode {
		// Hint window overflow: give up on tracking this mutation and leave
		// convergence to anti-entropy.
		s.lostUpdates.Inc()
		if tracker != nil {
			tracker.discount(s.engine.Now())
		}
		return
	}
	s.hintsQueued.Inc()
	s.pendingHints[id] = append(s.pendingHints[id], pendingApply{key: key, ver: ver, tracker: tracker, origin: origin})
}

// retryHints periodically redelivers queued hints to nodes that are
// available, so dropped mutations converge without waiting for the full
// anti-entropy sweep.
func (s *Store) retryHints(time.Duration) {
	for _, id := range s.hintedNodes() {
		if node, ok := s.cluster.Node(id); ok && node.Available() {
			s.deliverHints(id)
		}
	}
}

// hintedNodes returns the nodes with queued hints in ascending ID order.
// Delivery draws network jitter from a shared random stream and schedules
// events, so iterating the pendingHints map directly would let Go's
// randomized map order leak into the simulation and break reproducibility.
// The result lives in a scratch buffer reused across sweeps.
func (s *Store) hintedNodes() []cluster.NodeID {
	ids := s.hintIDScratch[:0]
	for id := range s.pendingHints {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s.hintIDScratch = ids
	return ids
}

// deliverHints flushes queued hints (up to maxHintsPerDelivery) to a node
// that has become available. Each hint is replayed as a replication apply at
// the time it would actually reach the node.
func (s *Store) deliverHints(id cluster.NodeID) {
	hints := s.pendingHints[id]
	if len(hints) == 0 {
		return
	}
	node, ok := s.cluster.Node(id)
	net := s.cluster.Network()
	if !ok || !node.Available() || net.Isolated(id) {
		// Still down or cut off behind a partition (hint replay originates on
		// the majority side); keep the backlog queued.
		return
	}
	// Throttle the replay to a fraction of the replica's capacity over one
	// retry interval so hint delivery cannot keep the replica saturated.
	limit := int(hintDeliveryCapacityShare * node.Config().CapacityOpsPerSec * s.cfg.HintRetryInterval.Seconds())
	if limit < 100 {
		limit = 100
	}
	if limit > maxHintsPerDelivery {
		limit = maxHintsPerDelivery
	}
	var batch []pendingApply
	if net.PartitionActive() {
		// A hint replays only when its originating coordinator's side can
		// reach the target: a write acknowledged on the minority side of a
		// partition must stay invisible to the majority until the heal, or
		// the split-brain inconsistency window would close at the first
		// retry tick instead of at the heal. Scan for a deliverable hint
		// first: when the whole backlog is cross-cut (the common case during
		// a long partition) the retry tick must not rebuild it.
		deliverable := false
		for _, h := range hints {
			if net.Reachable(h.origin, id) {
				deliverable = true
				break
			}
		}
		if !deliverable {
			return
		}
		keep := make([]pendingApply, 0, len(hints))
		for _, h := range hints {
			if len(batch) < limit && net.Reachable(h.origin, id) {
				batch = append(batch, h)
			} else {
				keep = append(keep, h)
			}
		}
		if len(keep) > 0 {
			s.pendingHints[id] = keep
		} else {
			delete(s.pendingHints, id)
		}
	} else if len(hints) > limit {
		batch = hints[:limit]
		remaining := make([]pendingApply, len(hints)-limit)
		copy(remaining, hints[limit:])
		s.pendingHints[id] = remaining
	} else {
		batch = hints
		delete(s.pendingHints, id)
	}
	if len(batch) == 0 {
		return
	}
	now := s.engine.Now()
	at := now
	for _, h := range batch {
		h := h
		at += s.cfg.HintDeliveryDelay
		arrive := at + net.NodeToNode()
		s.engine.After(delayUntil(now, arrive), func(arrived time.Duration) {
			// A partition may have opened between batch assembly and
			// arrival; a delivery that can no longer cross the (new) cut is
			// requeued rather than applied, the same arrival-time recheck
			// every other replication path performs.
			if !net.Reachable(h.origin, id) || net.Isolated(id) {
				s.pendingHints[id] = append(s.pendingHints[id], h)
				return
			}
			target, ok := s.cluster.Node(id)
			if !ok || !target.Available() {
				s.lostUpdates.Inc()
				if h.tracker != nil {
					h.tracker.discount(arrived)
				}
				return
			}
			d, okApply := target.Enqueue(arrived, cluster.ReplicationApply)
			if !okApply {
				s.lostUpdates.Inc()
				if h.tracker != nil {
					h.tracker.discount(arrived)
				}
				return
			}
			s.hintsDelivered.Inc()
			s.scheduleApply(id, h.key, h.ver, arrived+d, h.tracker)
		})
	}
}

// runAntiEntropy periodically repairs divergence: every queued hint for an
// available node is delivered, and every live replica is brought up to the
// latest acknowledged version of the keys it owns.
func (s *Store) runAntiEntropy(time.Duration) {
	s.aeRuns.Inc()
	for _, id := range s.hintedNodes() {
		s.deliverHints(id)
	}
	s.repairAll()
}

// repairAll brings every live replica up to the newest acknowledged version
// of each key it is responsible for. It models the effect of a completed
// Merkle-tree repair without tracking per-key digests. Crashed replicas are
// skipped — a repair stream cannot reach a node that is down — and the whole
// sweep aborts while a partition is active: a repair session needs the
// replica set connected, and latestAcked holds cluster-wide knowledge
// (including minority-acknowledged versions) that no single side possesses
// during the cut. Divergence therefore persists until nodes recover or the
// partition heals, which is exactly the window the fault scenarios measure.
func (s *Store) repairAll() {
	net := s.cluster.Network()
	if net.PartitionActive() {
		return
	}
	for key, ver := range s.latestAcked {
		for _, id := range s.replicasForRepair(key) {
			rep, ok := s.replicas[id]
			if !ok {
				continue
			}
			if node, up := s.cluster.Node(id); !up || !node.Available() {
				continue
			}
			if rep.read(key) < ver {
				rep.apply(key, ver)
				s.readRepairs.Inc()
			}
		}
	}
}

// scheduleReadRepair propagates the newest acknowledged version of key to
// the replicas that were contacted by a read and found (or suspected) stale.
func (s *Store) scheduleReadRepair(key Key, contacted []cluster.NodeID) {
	latest := s.latestAcked[key]
	if latest == 0 {
		return
	}
	// latestAcked is cluster-wide knowledge: while a partition is active it
	// includes versions acknowledged on the *other* side of the cut (a
	// minority coordinator keeps acking CL=ONE writes), which no repair
	// message could physically carry across. Repairing from it in either
	// direction would close the split-brain window early, so read repair
	// pauses entirely for the duration of the partition, exactly like the
	// anti-entropy sweep.
	if s.cluster.Network().PartitionActive() {
		return
	}
	for _, id := range contacted {
		rep, ok := s.replicas[id]
		if !ok || rep.read(key) >= latest {
			continue
		}
		id := id
		s.engine.After(s.cfg.ReadRepairDelay, func(time.Duration) {
			// The node may have crashed or been partitioned away since the
			// read; a repair mutation cannot reach it then.
			node, up := s.cluster.Node(id)
			if !up || !node.Available() || s.cluster.Network().Isolated(id) {
				return
			}
			if rep, ok := s.replicas[id]; ok && rep.read(key) < latest {
				rep.apply(key, latest)
				s.readRepairs.Inc()
			}
		})
	}
}

// applied is called when one replica has applied the tracked write.
func (t *writeTracker) applied(at time.Duration) {
	if t.resolved {
		return
	}
	if at > t.lastApply {
		t.lastApply = at
	}
	t.remaining--
	if t.remaining <= 0 {
		t.resolve()
	}
}

// discount removes a replica that will never apply the write (node removed
// or update dropped) from the tracker.
func (t *writeTracker) discount(at time.Duration) {
	if t.resolved {
		return
	}
	if at > t.lastApply {
		t.lastApply = at
	}
	t.remaining--
	if t.remaining <= 0 {
		t.resolve()
	}
}

// setAck records when the client was acknowledged. If every replica has
// already applied the write (possible for strict consistency levels, where
// the client acknowledgement trails the last apply), the window is recorded
// now.
func (t *writeTracker) setAck(at time.Duration) {
	t.ackAt = at
	if t.resolved {
		t.recordWindow()
	}
}

// resolve is called when no replica remains outstanding. The window is
// recorded immediately when the acknowledgement time is already known;
// otherwise setAck records it once the client acknowledgement fires.
func (t *writeTracker) resolve() {
	if t.resolved {
		return
	}
	t.resolved = true
	if t.ackAt != 0 {
		t.recordWindow()
	}
}

// recordWindow writes the window into the store's ground truth exactly once.
// Writes that were never acknowledged have no client-observable window and
// are skipped.
func (t *writeTracker) recordWindow() {
	if t.recorded || t.ackAt == 0 {
		return
	}
	t.recorded = true
	window := t.lastApply - t.ackAt
	if window < 0 {
		window = 0
	}
	if t.trace != nil {
		t.trace.Add(t.lastApply, "sla-account", 0)
		t.store.finishTrace(t.trace, t.lastApply, nil)
	}
	t.rec.window(window)
}
