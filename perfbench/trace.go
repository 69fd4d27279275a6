package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"autonosql"
)

// span is one interval the benchmark spent inside a call into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run writes them out. A nil log
// records nothing, so untraced runs pay no tracing cost.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(l.origin))})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = int64(time.Since(l.origin))
}

// add records a span whose bounds were taken by the caller.
func (l *spanLog) add(name string, parent int, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin))})
}

// write stores the spans as JSON lines.
func (l *spanLog) write(file string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(file, buf.Bytes(), 0o644)
}

// layers are the repository packages charged by name; samples in any other
// repository package go to "other", the benchmark's own frames to "bench".
var layers = []string{"sim", "store", "metrics", "monitor", "cluster", "workload", "core",
	"tenant", "fault", "sla", "baseline", "serve", "autonosql"}

// attribution is CPU time charged per layer, over every traced pass.
type attribution struct {
	ns      map[string]int64
	total   int64
	samples int
	raw     [][]byte // the profiles, written out with the spans
}

// layerOf maps a function name to its repository layer, or "" for code
// outside the repository. The benchmark is package main.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "autonosql."):
		return "autonosql"
	case strings.HasPrefix(fn, "autonosql/"):
		rest := fn[len("autonosql/"):]
		rest = strings.TrimPrefix(rest, "internal/")
		if i := strings.IndexByte(rest, '.'); i > 0 {
			rest = rest[:i]
		}
		if slices.Contains(layers, rest) {
			return rest
		}
		return "other"
	}
	return ""
}

func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.markroot") ||
		fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" || fn == "runtime.scanobject"
}

// charge attributes one profile: each sample goes to the layer of its
// innermost repository frame, so standard-library and runtime frames beneath
// that frame count to it. Samples with no repository frame are background GC
// ("runtime.gc") or "unattributed". The sim layer is further split by file:
// engine.go is the event queue, rand.go and feed.go the random streams.
func (a *attribution) charge(data []byte) error {
	prof, err := parseCPUProfile(data)
	if err != nil {
		return err
	}
	if a.ns == nil {
		a.ns = map[string]int64{}
	}
	a.raw = append(a.raw, data)
	for _, s := range prof.samples {
		a.total += s.value
		a.samples++
		key := "unattributed"
		stack := prof.stack(s)
		for _, f := range stack {
			if l := layerOf(f.name); l != "" {
				key = l
				if l == "sim" {
					switch path.Base(f.file) {
					case "engine.go":
						a.ns["sim.queue"] += s.value
					case "rand.go", "feed.go":
						a.ns["sim.rand"] += s.value
					}
				}
				break
			}
		}
		if key == "unattributed" {
			for _, f := range stack {
				if isGC(f.name) {
					key = "runtime.gc"
					break
				}
			}
		}
		a.ns[key] += s.value
	}
	return nil
}

// seconds is the CPU time charged to key, per traced pass.
func (a *attribution) seconds(key string, passes int) float64 {
	return float64(a.ns[key]) / 1e9 / float64(passes)
}

// profiled runs fn under the CPU profiler and charges the profile.
func (a *attribution) profiled(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return a.charge(buf.Bytes())
}

// passStats sums the simulated outputs of the traced passes, read from final
// reports only.
type passStats struct {
	ops, failedOps, probeOps        uint64
	events, poolHits, poolMisses    uint64
	heapPeak                        int
	windows, decisions, reconfigs   int
	shed, delayed                   uint64
	faultWindows                    int
	requests, streamed              int
	bytesStreamed                   int64
	serveGaps                       []time.Duration
	mallocs, allocBytes, gcCycles   uint64
	plainCPU, tracedCPU, busyWindow []float64
}

func (s *passStats) addReport(r *autonosql.Report) {
	s.ops += r.Reads + r.Writes
	s.failedOps += r.FailedReads + r.FailedWrites
	s.probeOps += r.MonitoringProbeOps
	if p := r.Profile; p != nil {
		s.events += p.Events
		s.poolHits += p.PoolHits
		s.poolMisses += p.PoolMisses
		s.heapPeak = max(s.heapPeak, p.HeapPeak)
	}
	for _, pts := range r.Series {
		s.windows += len(pts)
		break // every series has one point per window
	}
	s.decisions += len(r.Decisions)
	s.reconfigs += r.Reconfigurations
	for _, t := range r.Tenants {
		s.shed += t.ShedOps
		s.delayed += t.DelayedOps
	}
	s.faultWindows += len(r.Faults)
}

// memDelta runs fn and adds the allocations and GC cycles it caused.
func (s *passStats) memDelta(fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	s.mallocs += m1.Mallocs - m0.Mallocs
	s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles += uint64(m1.NumGC - m0.NumGC)
	return err
}

// layerValues turns the traced passes into the per-layer metrics.
func layerValues(a *attribution, s *passStats, drivers map[string]float64) map[string]float64 {
	passes := len(s.tracedCPU)
	n := float64(passes)
	v := map[string]float64{}
	for _, l := range layers {
		v[l+".self_s"] = a.seconds(l, passes)
	}
	v["other.self_s"] = a.seconds("other", passes)
	v["bench.self_s"] = a.seconds("bench", passes)
	v["sim.queue.self_s"] = a.seconds("sim.queue", passes)
	v["sim.rand.self_s"] = a.seconds("sim.rand", passes)
	v["runtime.gc_s"] = a.seconds("runtime.gc", passes)
	v["unattributed_share"] = float64(a.ns["unattributed"]) / float64(max(a.total, 1))
	v["sim.events"] = float64(s.events) / n
	v["sim.pool_hit_rate"] = float64(s.poolHits) / float64(max(s.poolHits+s.poolMisses, 1))
	v["sim.heap_peak"] = float64(s.heapPeak)
	v["sim.ns_per_event"] = float64(a.ns["sim"]) / float64(max(s.events, 1))
	v["store.ops"] = float64(s.ops) / n
	v["store.failed_ops"] = float64(s.failedOps) / n
	v["metrics.sample_windows"] = float64(s.windows) / n
	v["metrics.ms_per_window"] = float64(a.ns["metrics"]) / 1e6 / float64(max(s.windows, 1))
	v["monitor.probe_ops"] = float64(s.probeOps) / n
	v["core.decisions"] = float64(s.decisions) / n
	v["core.reconfigurations"] = float64(s.reconfigs) / n
	v["tenant.shed_ops"] = float64(s.shed) / n
	v["tenant.delayed_ops"] = float64(s.delayed) / n
	v["fault.windows"] = float64(s.faultWindows) / n
	v["serve.requests"] = float64(s.requests) / n
	v["serve.windows_streamed"] = float64(s.streamed) / n
	v["serve.bytes_streamed"] = float64(s.bytesStreamed) / n
	v["serve.gap_p50_ms"] = quantile(millis(s.serveGaps), 0.5)
	v["runtime.gc_cycles"] = float64(s.gcCycles) / n
	v["runtime.allocs_per_sim_op"] = float64(s.mallocs) / float64(max(s.ops, 1))
	v["runtime.bytes_per_sim_op"] = float64(s.allocBytes) / float64(max(s.ops, 1))
	v["suite.cpu_busy_share"] = median(s.busyWindow)
	v["trace_overhead_share"] = median(s.tracedCPU)/median(s.plainCPU) - 1
	for k, x := range drivers {
		v[k] = x
	}
	return v
}

// finishTrace writes the traced run's spans and profiles and describes it.
func finishTrace(name string, seed int64, a *attribution, s *passStats, log *spanLog) ([]string, error) {
	passes := len(s.tracedCPU)
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := log.write(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	for i, raw := range a.raw {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", base, i+1), raw, 0o644); err != nil {
			return nil, err
		}
	}
	return []string{
		fmt.Sprintf("%d traced passes paired with %d untraced; %d CPU samples (%.2f s) charged", passes, passes, a.samples, float64(a.total)/1e9),
		fmt.Sprintf("*.self_s and counts are per pass; spans and profiles in %s.*", base),
	}, nil
}

// alternate runs a then b, or b then a when swap is set, stopping at the
// first error. Paired passes alternate which side runs first, so neither
// always inherits the other's heap and caches.
func alternate(swap bool, a, b func() error) error {
	if swap {
		a, b = b, a
	}
	if err := a(); err != nil {
		return err
	}
	return b()
}

func traceScenario(mk func(int64) scenarioWorkload) func(int64, time.Duration, *tally) (map[string]float64, []string, error) {
	return func(seed int64, budget time.Duration, t *tally) (map[string]float64, []string, error) {
		w := mk(subSeed(seed, 0))
		drivers, err := layerDrivers()
		if err != nil {
			return nil, nil, err
		}
		tracedSpec := w.spec
		tracedSpec.Observe = &autonosql.ObserveSpec{Profile: true}
		log := newSpanLog()
		var a attribution
		var s passStats
		var first scenarioRun
		for rep := newRepeater(budget, 1); rep.next(); {
			pass := len(s.plainCPU) + 1
			var plain, traced scenarioRun
			err := alternate(pass%2 == 0, func() error {
				var err error
				plain, err = runScenario(w.spec, nil)
				s.busyWindow = append(s.busyWindow, float64(plain.totalCPU)/float64(plain.total))
				return err
			}, func() error {
				return s.memDelta(func() error {
					return a.profiled(func() error {
						var err error
						traced, err = runScenario(tracedSpec, log)
						return err
					})
				})
			})
			if err != nil {
				return nil, nil, err
			}
			if pass == 1 {
				first = plain
			}
			t.record(fmt.Sprintf("untraced run %d", pass), checkRepeat(w, plain, first)...)
			t.record(fmt.Sprintf("traced run %d", pass), checkRepeat(w, traced, first)...)
			s.addReport(traced.report)
			s.plainCPU = append(s.plainCPU, plain.totalCPU.Seconds())
			s.tracedCPU = append(s.tracedCPU, traced.totalCPU.Seconds())
		}
		notes, err := finishTrace(w.name, seed, &a, &s, log)
		return layerValues(&a, &s, drivers), notes, err
	}
}
