// Command perfbench is the repository benchmark: it drives the public
// autonosql API (and, for live_sweep, the in-process nosqlsimd handler over
// loopback) on one named workload, checks every output, and prints host-time
// metrics by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload steady --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it makes
// the separate traced run that charges host CPU time to the repository's
// packages and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds the spans, CPU profiles and result records a run writes,
// relative to the directory the benchmark runs in.
const outDir = ".bench_build/perfbench-out"

// metricDef is one metric as BENCHMARK.json lists it. BENCHMARK.json is the
// single list of the metrics a run must report and their units.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("parsing %s: %w", path, err)
	}
	return m, nil
}

// workload is one named benchmark workload. measure makes the untraced metric
// run; trace makes the traced run. Both fill the result's metrics and charge
// every run, variant and request they attempt to the tally.
type workload struct {
	measure func(seed int64, budget time.Duration, t *tally) (map[string]float64, []string, error)
	trace   func(seed int64, budget time.Duration, t *tally) (map[string]float64, []string, error)
}

var workloads = map[string]workload{
	"steady":     {measureScenario(steadySpec), traceScenario(steadySpec)},
	"autoscale":  {measureScenario(autoscaleSpec), traceScenario(autoscaleSpec)},
	"live_sweep": {measureSweep, traceSweep},
}

// tally counts attempted units of work (scenario runs, suite variants, HTTP
// requests) and those that errored or failed an output check.
type tally struct {
	attempted, failed int
	problems          []string
}

// record counts one attempted unit; it failed when any problem is given.
func (t *tally) record(unit string, problems ...string) {
	t.attempted++
	if len(problems) > 0 {
		t.failed++
		for _, p := range problems {
			t.problems = append(t.problems, unit+": "+p)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: steady, autoscale or live_sweep")
	seed := fs.Int64("seed", 1, "benchmark seed; every scenario seed derives from it")
	seconds := fs.Int("seconds", 30, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want steady, autoscale or live_sweep)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	budget := time.Duration(*seconds) * time.Second
	defs, runFn := m.EndToEnd, w.measure
	if *trace == 1 {
		defs, runFn = m.PerLayer, w.trace
	}
	var t tally
	values, notes, err := runFn(*seed, budget, &t)
	if err != nil {
		return err
	}
	if len(values) != len(defs) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d", len(values), len(defs))
	}
	host := hostInfo()
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host: %s\n", host)
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%-26s %-14.6g %-9s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	share := float64(t.failed) / float64(max(t.attempted, 1))
	fmt.Fprintf(stdout, "%-26s %-14.6g %-9s (lower is better; %d of %d runs, variants and requests)\n",
		"failed_share", share, "share", t.failed, t.attempted)
	for _, n := range notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	if t.attempted == 0 {
		return errors.New("nothing was attempted")
	}

	record := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": host, "result": res, "failed_share": share, "notes": notes, "problems": t.problems,
	}
	if err := writeJSONFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace)), record); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func hostInfo() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("go=%s nproc=%d GOMAXPROCS=%d cpu=%q", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu)
}

// resetPeakRSS returns free heap memory to the OS and resets the kernel's
// peak-RSS mark, so the next peakRSSMB covers only what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB since
// the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// repeater paces a run's repeats: the first min always run, and after them
// another starts only while one more of the last repeat's length still fits
// in the budget.
type repeater struct {
	budget           time.Duration
	min, n           int
	start, lastStart time.Time
}

func newRepeater(budget time.Duration, min int) *repeater {
	return &repeater{budget: budget, min: min, start: time.Now()}
}

func (r *repeater) next() bool {
	now := time.Now()
	if r.n >= r.min && now.Sub(r.start)+now.Sub(r.lastStart) > r.budget {
		return false
	}
	r.n++
	r.lastStart = now
	return true
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// median returns the median of xs (zero for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, leaving xs unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
