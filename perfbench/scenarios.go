package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"autonosql"
	"autonosql/internal/sim"
)

// setupWarmups and setupTrials are how many set-ups a metric run makes
// before its measured repeats, untimed and timed; setup_s is the median of
// the timed ones.
const (
	setupWarmups = 5
	setupTrials  = 101
)

// minRepeats is the least number of measured repeats per run, so medians and
// the cross-repeat fingerprint check always have material.
const minRepeats = 3

// subSeeds is how many scenario seeds a metric run cycles through, repeat by
// repeat, all derived from the benchmark seed. The run's medians then cover
// several simulated workloads and depend less on which seed it was given.
const subSeeds = 3

func subSeed(seed int64, k int) int64 { return sim.DeriveSeed(seed, "repeat-"+strconv.Itoa(k)) }

// scenarioWorkload is a single-scenario workload: the spec every repeat of a
// seed runs, and the checks its report must pass.
type scenarioWorkload struct {
	name  string
	spec  autonosql.ScenarioSpec
	check func(*autonosql.Report) []string
}

// steadySpec is the default 3-node cluster (RF=3, ONE/ONE) with no
// controller under constant zipfian 50/50 load and 10-s windows.
func steadySpec(seed int64) scenarioWorkload {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = sim.DeriveSeed(seed, "steady")
	spec.Duration = 3 * time.Minute
	spec.Workload.BaseOpsPerSec = 4000
	spec.Controller.Mode = autonosql.ControllerNone
	return scenarioWorkload{name: "steady", spec: spec, check: func(r *autonosql.Report) []string {
		var p []string
		want := spec.Workload.BaseOpsPerSec * spec.Duration.Seconds()
		if ops := float64(r.Reads + r.Writes); ops < 0.95*want || ops > 1.05*want {
			p = append(p, fmt.Sprintf("%.0f client ops, want about %.0f", ops, want))
		}
		if r.Reconfigurations != 0 || len(r.Faults) != 0 || len(r.Tenants) != 0 {
			p = append(p, "an uncontrolled, fault-free, single-tenant run reported reconfigurations, faults or tenants")
		}
		return p
	}}
}

// autoscaleSpec is the smart controller (predictive; consistency,
// replication and scale changes; delay-mode admission; class placement) over
// the three-tier tenant mix, with a crash, a partition and a latency storm
// mid-run and 5-s windows.
func autoscaleSpec(seed int64) scenarioWorkload {
	const d = 4 * time.Minute
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = sim.DeriveSeed(seed, "autoscale")
	spec.Duration = d
	spec.SampleInterval = 5 * time.Second
	spec.Controller = autonosql.ControllerSpec{
		Mode:                    autonosql.ControllerSmart,
		ControlInterval:         10 * time.Second,
		Predictive:              true,
		AllowConsistencyChanges: true,
		AllowReplicationChanges: true,
		AllowScaling:            true,
		Admission:               autonosql.AdmissionSpec{Enabled: true, Mode: autonosql.AdmissionDelay},
		AllowPlacement:          true,
	}
	mix, ok := autonosql.LookupTenantMix("three-tier")
	if !ok {
		panic("three-tier tenant mix is missing")
	}
	spec.Tenants = mix.Tenants
	spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
		autonosql.CrashFault(d/5, d/5, 1),
		autonosql.PartitionFault(2*d/5, d/10, 1),
		autonosql.LatencyStormFault(3*d/5, d/10, 0.7),
	}}
	return scenarioWorkload{name: "autoscale", spec: spec, check: func(r *autonosql.Report) []string {
		var p []string
		if len(r.Tenants) != len(spec.Tenants) {
			p = append(p, fmt.Sprintf("%d tenant sections, want %d", len(r.Tenants), len(spec.Tenants)))
		}
		if len(r.Faults) != len(spec.Faults.Faults) {
			p = append(p, fmt.Sprintf("%d fault windows, want %d", len(r.Faults), len(spec.Faults.Faults)))
		}
		if r.Reconfigurations < 1 {
			p = append(p, "the controller made no reconfiguration")
		}
		return p
	}}
}

// scenarioRun is one timed NewScenario + Run + Fingerprint. Wall-clock
// times are kept for the notes and the spans; the metrics use process CPU
// time (see README.md).
type scenarioRun struct {
	run, total       time.Duration   // wall clock
	runCPU, totalCPU time.Duration   // process CPU
	gaps             []time.Duration // process CPU between consecutive sample windows
	report           *autonosql.Report
	fingerprint      string
}

// runScenario builds and runs one scenario, recording spans into log (nil
// records nothing). Only the final report is read: nothing touches the
// store's statistics or quantiles mid-run.
func runScenario(spec autonosql.ScenarioSpec, log *spanLog) (scenarioRun, error) {
	var r scenarioRun
	root := log.begin("scenario", 0)
	defer log.end(root)

	t0, c0 := time.Now(), cpuTime()
	id := log.begin("NewScenario", root)
	sc, err := autonosql.NewScenario(spec)
	log.end(id)
	t1, c1 := time.Now(), cpuTime()
	if err != nil {
		return r, err
	}
	runID, last, lastCPU := 0, t1, c1
	sc.OnSample(func(autonosql.SampleWindow) error {
		now, cpu := time.Now(), cpuTime()
		r.gaps = append(r.gaps, cpu-lastCPU)
		log.add("window", runID, last, now)
		last, lastCPU = now, cpu
		return nil
	})
	runID = log.begin("Run", root)
	rep, err := sc.Run()
	log.end(runID)
	t2, c2 := time.Now(), cpuTime()
	r.run, r.total = t2.Sub(t1), t2.Sub(t0)
	r.runCPU, r.totalCPU = c2-c1, c2-c0
	if err != nil {
		return r, err
	}
	id = log.begin("Fingerprint", root)
	r.fingerprint = rep.Fingerprint()
	log.end(id)
	r.report = rep
	return r, nil
}

// timeSetups runs setup warmups times, then trials times keeping the times
// it reports. Each starts after a collection, so no set-up pays for garbage
// an earlier one left.
func timeSetups(setup func() (time.Duration, error), warmups, trials int) ([]float64, error) {
	var out []float64
	for i := 0; i < warmups+trials; i++ {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return nil, err
		}
		if i >= warmups {
			out = append(out, d.Seconds())
		}
	}
	return out, nil
}

// checkRepeat runs the workload's checks on a repeat and compares it with
// the seed's first repeat: same fingerprint, same client op count.
func checkRepeat(w scenarioWorkload, r, first scenarioRun) []string {
	p := w.check(r.report)
	if r.fingerprint != first.fingerprint {
		p = append(p, "report fingerprint differs from the seed's first repeat")
	}
	if ops, want := r.report.Reads+r.report.Writes, first.report.Reads+first.report.Writes; ops != want {
		p = append(p, fmt.Sprintf("%d client ops, the seed's first repeat had %d", ops, want))
	}
	return p
}

func measureScenario(mk func(int64) scenarioWorkload) func(int64, time.Duration, *tally) (map[string]float64, []string, error) {
	return func(seed int64, budget time.Duration, t *tally) (map[string]float64, []string, error) {
		ws := make([]scenarioWorkload, subSeeds)
		for k := range ws {
			ws[k] = mk(subSeed(seed, k))
		}
		setups, err := timeSetups(func() (time.Duration, error) {
			t0 := time.Now()
			_, err := autonosql.NewScenario(ws[0].spec)
			return time.Since(t0), err
		}, setupWarmups, setupTrials)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}

		var runs []scenarioRun
		var opsRate, scenRate, gapP99, rss, wallOps, wallScen []float64
		var gaps int
		firsts := make([]*scenarioRun, subSeeds)
		for rep := newRepeater(budget, minRepeats); rep.next(); {
			unit := fmt.Sprintf("run %d", len(runs)+1)
			k := len(runs) % subSeeds
			w := ws[k]
			if err := resetPeakRSS(); err != nil {
				return nil, nil, err
			}
			r, err := runScenario(w.spec, nil)
			if err != nil {
				t.record(unit, err.Error())
				break
			}
			peak, err := peakRSSMB()
			if err != nil {
				return nil, nil, err
			}
			if firsts[k] == nil {
				t.record(unit, w.check(r.report)...)
				firsts[k] = &r
			} else {
				t.record(unit, checkRepeat(w, r, *firsts[k])...)
			}
			runs = append(runs, r)
			ops := float64(r.report.Reads + r.report.Writes)
			opsRate = append(opsRate, ops/r.runCPU.Seconds())
			scenRate = append(scenRate, 1/r.totalCPU.Seconds())
			wallOps = append(wallOps, ops/r.run.Seconds())
			wallScen = append(wallScen, 1/r.total.Seconds())
			gapP99 = append(gapP99, quantile(millis(r.gaps), 0.99))
			gaps += len(r.gaps)
			rss = append(rss, peak)
		}
		if len(runs) == 0 {
			return nil, nil, fmt.Errorf("no run of %s completed", ws[0].spec.Duration)
		}
		values := map[string]float64{
			"setup_s":           median(setups),
			"sim_ops_per_s":     median(opsRate),
			"scenarios_per_s":   median(scenRate),
			"stream_gap_p99_ms": median(gapP99),
			"peak_rss_mb":       median(rss),
		}
		notes := []string{
			fmt.Sprintf("%d repeats of %v simulated cycling over %d seeds, %d client ops in the first; medians over repeats", len(runs), ws[0].spec.Duration, subSeeds, runs[0].report.Reads+runs[0].report.Writes),
			fmt.Sprintf("sim_ops_per_s per repeat: %.0f", opsRate),
			fmt.Sprintf("per wall-clock second instead: sim_ops_per_s %.0f, scenarios_per_s %.4f (medians)", median(wallOps), median(wallScen)),
			fmt.Sprintf("peak_rss_mb per repeat: %.1f", rss),
			fmt.Sprintf("setup_s is NewScenario, median of %d set-ups after %d untimed", len(setups), setupWarmups),
			fmt.Sprintf("stream_gap_p99_ms: median over repeats of each repeat's p99 process CPU between in-process windows (%d gaps in all)", gaps),
		}
		return values, notes, nil
	}
}
