// Package tenant makes multi-tenant workloads first-class citizens of the
// simulation. A scenario can host any number of named tenants, each with its
// own workload, its own SLA class (gold/silver/bronze presets mapping to
// inconsistency-window and latency bounds plus penalty rates) and its own
// ground-truth metrics stream, instead of modelling co-tenants only as
// anonymous background noise.
//
// The package provides:
//
//   - Class / ClassSpec: the named SLA classes and their bounds and prices.
//   - Runtime: the per-tenant client-side assembly — it sits between a
//     workload generator and the store's tagged API, records the tenant's
//     client-observed latencies and errors over each sampling interval (and
//     the monitor's aggregate view of the operations it forwards), and folds
//     per-tenant SLA compliance into its own tracker.
//   - Signal: the per-tenant slice of a monitoring snapshot the tenant-aware
//     controller consumes. The analyzer acts on the worst penalty-weighted
//     tenant signal rather than the aggregate, and scale-in is vetoed while
//     a gold tenant is in violation.
//   - Limiter: a deterministic token-bucket admission controller. When the
//     planner throttles a tenant, the Runtime sheds arrivals beyond the
//     admitted rate before they reach the store; sheds are rejected with
//     ErrAdmissionShed, counted against the tenant's own SLA and recorded
//     as throttle windows for the report.
//
// Bermbach & Tai's consistency benchmarking and the noisy-neighbour
// observations the source paper builds on both frame differentiated
// per-client service as the realistic operating regime; this package is the
// repo's model of that regime.
package tenant
