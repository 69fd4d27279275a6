// Package workload generates the client traffic offered to the store: a
// Poisson arrival process whose rate follows a LoadProfile, a read/write Mix,
// and a KeyChooser selecting which keys operations touch.
//
// LoadProfiles cover the shapes the experiments need — constant, step,
// diurnal cycle, flash-crowd spike, their composition and replayed traces —
// and the KeyChoosers mirror the YCSB core-workload distributions (uniform,
// zipfian, latest-skewed).
//
// The Generator drives operations into any Target without a completion
// callback and keeps no statistics of its own; scenarios pass the monitor
// (or a tenant runtime that records into it), so client-observed latency and
// error rates are measured the way an application-side metrics library would
// measure them. All randomness comes from named sim.RandSource streams,
// keeping runs reproducible.
package workload
