// Package metrics provides the small measurement primitives the simulator
// and controllers share: a streaming Histogram with quantile estimation (the
// backbone of every cumulative latency and inconsistency-window percentile in
// the reports), a sliding WindowedStat over recent samples, an
// IntervalRecorder that turns a client view's operation outcomes into
// per-interval rates and latency percentiles, an exponentially weighted
// moving average, counters, running mean/variance, and a TimeSeries of
// timestamped observations that records how a metric evolves over a run.
//
// Histogram and WindowedStat share one quantile interpolation; they differ
// only in which samples they retain.
package metrics
