// Command nosqlsim runs a single simulated eventually-consistent cluster
// scenario and prints the resulting report: ground-truth inconsistency-window
// percentiles, client latency, SLA compliance, cost and (optionally) ASCII
// timelines of the recorded series.
//
// Usage example:
//
//	nosqlsim -nodes 3 -rf 3 -write-cl ONE -ops 3000 -duration 5m -controller none -plot window_p95_ms
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"autonosql"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// writeTo streams one export into a freshly created file.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("nosqlsim", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 1, "random seed")
		duration   = fs.Duration("duration", 5*time.Minute, "simulated duration")
		nodes      = fs.Int("nodes", 3, "initial cluster size")
		nodeOps    = fs.Float64("node-ops", 5000, "per-node sustainable ops/s")
		rf         = fs.Int("rf", 3, "replication factor")
		readCL     = fs.String("read-cl", "ONE", "read consistency level (ONE, TWO, QUORUM, ALL)")
		writeCL    = fs.String("write-cl", "ONE", "write consistency level (ONE, TWO, QUORUM, ALL)")
		ops        = fs.Float64("ops", 3000, "offered load in ops/s (base rate)")
		peak       = fs.Float64("peak", 0, "peak ops/s for step/diurnal/spike patterns")
		pattern    = fs.String("pattern", "constant", "load pattern: constant, step, diurnal, spike, diurnal+spike")
		readFrac   = fs.Float64("read-fraction", 0.5, "fraction of operations that are reads")
		keys       = fs.Int("keys", 10000, "keyspace size")
		noisy      = fs.Bool("noisy-neighbour", false, "enable multi-tenant background load")
		controller = fs.String("controller", "none", "controller: none, reactive, smart")
		windowSLA  = fs.Duration("sla-window", 250*time.Millisecond, "SLA bound on the p95 inconsistency window")
		probes     = fs.Float64("probe-rate", 1, "active read-after-write probes per second (0 disables)")
		faults     = fs.String("faults", "", "fault plan, comma-separated kind:start:duration[:n=N][:sev=S] events\n(kinds: crash, slow, partition, storm; e.g. \"crash:1m:30s,storm:2m:30s:sev=0.8\")")
		tenants    = fs.String("tenants", "", "multi-tenant workload, comma-separated class:pattern:base[:peak=P][:read=F][:keys=K][:name=N]\n(classes: gold, silver, bronze; e.g. \"gold:diurnal:2000,bronze:constant:500\"); replaces -ops/-pattern traffic")
		admission  = fs.String("admission", "", "tenant admission control for the smart controller:\noff | on[:frac=F][:floor=R][:cooldown=D][:hold=D] (e.g. \"on:frac=0.4:floor=100\")")
		placement  = fs.Bool("placement", false, "allow the smart controller to dedicate nodes to an SLA class")
		plot       = fs.String("plot", "", "comma-separated report series to plot (e.g. window_p95_ms,cluster_size)")
		decisions  = fs.Bool("decisions", false, "print the controller decision log")
		recordPath = fs.String("record-trace", "", "record the run's arrival stream to the given JSON-lines trace file")
		replayPath = fs.String("replay-trace", "", "replay arrivals from the given trace file instead of generating them\n(the trace's tenants must match -tenants)")
		scaleTrace = fs.Float64("scale-trace", 1, "multiply every replayed arrival time by this factor (with -replay-trace;\n1.0 replays the trace bit-for-bit)")
		traceOps   = fs.String("trace-ops", "", "write sampled op-trace spans (JSON lines) to the given file")
		traceEvery = fs.Int("trace-every", 1, "with -trace-ops, sample every Nth operation")
		chromePath = fs.String("trace-chrome", "", "write the sampled spans as a Chrome trace_event file\n(load in chrome://tracing or Perfetto)")
		audit      = fs.Bool("audit", false, "print the MAPE decision audit trail (smart controller)")
		profile    = fs.Bool("profile", false, "print the engine's self-profiling counters")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = *seed
	spec.Duration = *duration
	spec.Cluster.InitialNodes = *nodes
	spec.Cluster.NodeOpsPerSec = *nodeOps
	spec.Cluster.NoisyNeighbour = *noisy
	spec.Store.ReplicationFactor = *rf
	spec.Store.ReadConsistency = autonosql.ConsistencyLevel(strings.ToUpper(*readCL))
	spec.Store.WriteConsistency = autonosql.ConsistencyLevel(strings.ToUpper(*writeCL))
	spec.Workload.Pattern = autonosql.LoadPattern(*pattern)
	spec.Workload.BaseOpsPerSec = *ops
	spec.Workload.PeakOpsPerSec = *peak
	spec.Workload.ReadFraction = *readFrac
	spec.Workload.Keyspace = *keys
	spec.Monitor.ActiveProbes = *probes > 0
	spec.Monitor.ProbeRate = *probes
	spec.SLA.MaxWindowP95 = *windowSLA
	spec.Controller.Mode = autonosql.ControllerMode(*controller)
	plan, err := autonosql.ParseFaultPlan(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
		return 2
	}
	spec.Faults = plan
	tenantSpecs, err := autonosql.ParseTenantSpecs(*tenants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
		return 2
	}
	spec.Tenants = tenantSpecs
	admissionSpec, err := autonosql.ParseAdmissionSpec(*admission)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
		return 2
	}
	spec.Controller.Admission = admissionSpec
	spec.Controller.AllowPlacement = *placement
	if *replayPath != "" {
		trace, err := autonosql.ReadWorkloadTraceFile(*replayPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 2
		}
		if *scaleTrace != 1 {
			trace, err = trace.Scale(*scaleTrace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
				return 2
			}
		}
		spec.Replay = trace
	} else if *scaleTrace != 1 {
		fmt.Fprintln(os.Stderr, "nosqlsim: -scale-trace needs -replay-trace")
		return 2
	}
	if *traceOps != "" || *chromePath != "" || *audit || *profile {
		spec.Observe = &autonosql.ObserveSpec{
			TraceOps:    *traceOps != "" || *chromePath != "",
			SampleEvery: *traceEvery,
			Audit:       *audit,
			Profile:     *profile,
		}
	}

	scenario, err := autonosql.NewScenario(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
		return 2
	}
	if *recordPath != "" {
		if err := scenario.RecordTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 2
		}
	}
	report, err := scenario.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
		return 1
	}
	if *recordPath != "" {
		trace, err := scenario.RecordedTrace()
		if err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 1
		}
		if err := trace.WriteFile(*recordPath); err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "recorded %d arrivals to %s\n", trace.EventCount(), *recordPath)
	}

	if *traceOps != "" {
		if err := writeTo(*traceOps, scenario.WriteSpans); err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "wrote %d op-trace spans to %s\n", report.Spans.Sampled, *traceOps)
	}
	if *chromePath != "" {
		if err := writeTo(*chromePath, scenario.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "wrote chrome trace to %s\n", *chromePath)
	}

	fmt.Fprint(out, report.String())
	if *audit && len(report.Audit) > 0 {
		fmt.Fprintln(out, "\naudit trail:")
		for _, e := range report.Audit {
			fmt.Fprintf(out, "  %s\n", e)
		}
	}
	if *decisions && len(report.Decisions) > 0 {
		fmt.Fprintln(out, "\ncontroller decisions:")
		for _, d := range report.Decisions {
			fmt.Fprintf(out, "  %s\n", d)
		}
	}
	if *plot != "" {
		for _, name := range strings.Split(*plot, ",") {
			name = strings.TrimSpace(name)
			if p := report.PlotSeries(name, 50); p != "" {
				fmt.Fprintln(out)
				fmt.Fprint(out, p)
			} else {
				fmt.Fprintf(os.Stderr, "nosqlsim: unknown series %q\n", name)
			}
		}
	}
	return 0
}
