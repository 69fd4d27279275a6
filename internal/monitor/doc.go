// Package monitor implements the measurement side of the paper's autonomous
// system: estimating the size of the inconsistency window and the health of
// the cluster with bounded, accountable overhead.
//
// Two estimation techniques are provided, mirroring the options the paper
// discusses under RQ1:
//
//   - Active probing (read-after-write on a dummy keyspace): a probe writes a
//     marker key and then polls it until the written version becomes visible,
//     yielding a client-centric window estimate at the cost of extra
//     operations against the database.
//   - Passive observation: the coordinator already learns when each replica
//     acknowledges a write; the spread between the client acknowledgement and
//     the last replica acknowledgement estimates the window with no added
//     load, at the cost of missing replicas that never acknowledge.
//
// The Monitor also keeps the aggregate client view (a
// metrics.IntervalRecorder), so client-observed latency and error rates are
// measured exactly the way an application-side metrics library would measure
// them. Untagged traffic reaches it through the Monitor's own Read and Write,
// which forward to the store; tenant runtimes forward their operations to
// the store under the tenant's tag and record them into the same view
// (Monitor.Client). Controllers consume periodic Snapshots; they never see
// simulator ground truth.
package monitor
