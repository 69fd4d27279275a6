package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"autonosql"
)

// benchSchema identifies the BENCH_*.json layout so downstream tooling can
// detect format changes.
const benchSchema = "autonosql-bench/v1"

// benchResult is one recorded benchmark in the JSON output.
type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// suiteResult summarises the quick-suite throughput measurement.
type suiteResult struct {
	Name            string  `json:"name"`
	Scenarios       int     `json:"scenarios"`
	ElapsedMs       float64 `json:"elapsed_ms"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
	Parallelism     int     `json:"parallelism"`
}

// benchFile is the top-level BENCH_<date>.json document.
type benchFile struct {
	Schema     string        `json:"schema"`
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"go_os"`
	GOARCH     string        `json:"go_arch"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []benchResult `json:"benchmarks"`
	Suite      suiteResult   `json:"suite"`
}

// quickScenarioSpec is the fixed quick-scale scenario every recorded
// trajectory point measures, so BENCH files are comparable across commits.
func quickScenarioSpec(seed int64) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = 30 * time.Second
	spec.Workload.BaseOpsPerSec = 2000
	spec.Controller.Mode = autonosql.ControllerNone
	// Self-profiling reads counters the engine maintains anyway, so the
	// report's pool/heap figures ride along at no measured cost.
	spec.Observe = &autonosql.ObserveSpec{Profile: true}
	return spec
}

// profileExtras folds a report's engine self-profile into a benchmark's
// extra columns.
func profileExtras(extra map[string]float64, p *autonosql.ProfileReport) {
	if p == nil {
		return
	}
	if lookups := p.PoolHits + p.PoolMisses; lookups > 0 {
		extra["pool_hit_rate"] = float64(p.PoolHits) / float64(lookups)
	}
	extra["heap_peak"] = float64(p.HeapPeak)
}

// runBenchJSON measures the quick-scale benchmarks and writes
// BENCH_<date>.json into dir. It returns the path written.
func runBenchJSON(dir string) (string, error) {
	out := benchFile{
		Schema:    benchSchema,
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}

	// Whole-scenario benchmark: the default quick-scale scenario without a
	// controller, the same shape BenchmarkScenarioThroughput pins in CI.
	var simulatedOps uint64
	var lastProfile *autonosql.ProfileReport
	var benchErr error
	scenarioRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scenario, err := autonosql.NewScenario(quickScenarioSpec(int64(i + 1)))
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			rep, err := scenario.Run()
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			simulatedOps = rep.Reads + rep.Writes
			lastProfile = rep.Profile
		}
	})
	if benchErr != nil {
		return "", fmt.Errorf("scenario benchmark: %w", benchErr)
	}
	nsPerOp := float64(scenarioRes.T.Nanoseconds()) / float64(scenarioRes.N)
	extra := map[string]float64{
		"simulated_ops":         float64(simulatedOps),
		"simulated_ops_per_sec": float64(simulatedOps) / (nsPerOp / 1e9),
	}
	profileExtras(extra, lastProfile)
	out.Benchmarks = append(out.Benchmarks, benchResult{
		Name:        "scenario_quick",
		Iterations:  scenarioRes.N,
		NsPerOp:     nsPerOp,
		AllocsPerOp: scenarioRes.AllocsPerOp(),
		BytesPerOp:  scenarioRes.AllocedBytesPerOp(),
		Extra:       extra,
	})

	// Quick-suite throughput: a small grid run through the concurrent suite
	// runner, measuring scenarios per wall-clock second.
	suiteSpec := autonosql.SuiteSpec{
		Base: quickScenarioSpec(1),
		Grid: autonosql.Grid{
			Controllers: []autonosql.ControllerMode{
				autonosql.ControllerNone, autonosql.ControllerReactive, autonosql.ControllerSmart,
			},
			ClusterSizes: []int{3, 5},
		},
	}
	suite, err := autonosql.NewSuite(suiteSpec)
	if err != nil {
		return "", fmt.Errorf("building quick suite: %w", err)
	}
	suiteRep, err := suite.Run()
	if err != nil {
		return "", fmt.Errorf("running quick suite: %w", err)
	}
	out.Suite = suiteResult{
		Name:            "suite_quick",
		Scenarios:       suiteRep.Len(),
		ElapsedMs:       float64(suiteRep.Elapsed.Microseconds()) / 1000,
		ScenariosPerSec: suiteRep.ScenariosPerSecond(),
		// The workers the run actually used — the requested bound resolved
		// against GOMAXPROCS and clamped to the variant count — not the
		// machine-wide GOMAXPROCS the earlier schema versions recorded.
		Parallelism: suiteRep.Parallelism,
	}

	// Never clobber an earlier trajectory point recorded on the same day: a
	// same-date baseline gets an ordinal suffix so both points survive.
	path := filepath.Join(dir, "BENCH_"+out.Date+".json")
	for n := 2; ; n++ {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		}
		path = filepath.Join(dir, fmt.Sprintf("BENCH_%s.%d.json", out.Date, n))
	}
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating %s: %w", path, err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return "", fmt.Errorf("encoding %s: %w", path, err)
	}
	return path, nil
}
