package store

// TenantID tags an operation with the tenant that issued it. The zero value
// is the untagged aggregate: scenarios that declare no tenants never pay for
// tenant bookkeeping beyond one bounds check per operation. Registered
// tenants are numbered 1..n.
type TenantID int

// TenantGroundTruth is a snapshot of one tenant's cumulative ground-truth
// statistics, the per-tenant analogue of Stats.
type TenantGroundTruth struct {
	GroundTruth
	// ShedOps counts operations rejected by admission control before they
	// reached the store. Shed operations are also counted in ReadFailures /
	// WriteFailures — a shed is a rejection in the tenant's ground truth —
	// but never in the aggregate Stats, whose counters cover operations the
	// store actually saw.
	ShedOps uint64
}

// RegisterTenants allocates per-tenant ground-truth records for tenant IDs
// 1..n. It must be called before any tagged operation is issued; registering
// zero tenants keeps the store in untagged single-tenant mode.
func (s *Store) RegisterTenants(n int) {
	if n <= 0 {
		return
	}
	s.tenants = make([]*record, n)
	for i := range s.tenants {
		s.tenants[i] = newRecord(s.all, 1024)
	}
}

// tenant resolves a tag to its record; it returns nil for the untagged
// aggregate (id 0) and for unregistered IDs.
func (s *Store) tenant(id TenantID) *record {
	if id <= 0 || int(id) > len(s.tenants) {
		return nil
	}
	return s.tenants[id-1]
}

// recordFor resolves a tag to the record its operations feed: the tenant's
// (chained to the aggregate) when registered, the aggregate otherwise.
func (s *Store) recordFor(id TenantID) *record {
	if t := s.tenant(id); t != nil {
		return t
	}
	return s.all
}

// TenantStats returns a snapshot of one tenant's cumulative ground truth.
// It returns the zero value for the aggregate ID and unregistered IDs.
func (s *Store) TenantStats(id TenantID) TenantGroundTruth {
	t := s.tenant(id)
	if t == nil {
		return TenantGroundTruth{}
	}
	return TenantGroundTruth{GroundTruth: t.snapshot(), ShedOps: t.shedOps.Value()}
}

// TenantShed records an operation of the tagged tenant rejected by admission
// control before it reached the store: the shed is counted as a rejection in
// the tenant's ground truth, and not in the aggregate's. It is a no-op for the
// untagged aggregate.
func (s *Store) TenantShed(id TenantID, write bool) {
	t := s.tenant(id)
	if t == nil {
		return
	}
	kind := OpRead
	if write {
		kind = OpWrite
	}
	t.shedOps.Inc()
	t.failures[kind-OpRead].Inc()
}

// TenantRecentWindowQuantile returns the q-quantile (in seconds) of one
// tenant's true inconsistency window over its most recent writes, the
// per-tenant analogue of RecentWindowQuantile.
func (s *Store) TenantRecentWindowQuantile(id TenantID, q float64) float64 {
	t := s.tenant(id)
	if t == nil {
		return 0
	}
	return t.recentWindow.Quantile(q)
}
