// Command nosqlsim runs a single simulated eventually-consistent cluster
// scenario and prints the resulting report: ground-truth inconsistency-window
// percentiles, client latency, SLA compliance, cost and (optionally) ASCII
// timelines of the recorded series.
//
// Usage example:
//
//	nosqlsim -nodes 3 -rf 3 -write-cl ONE -base 3000 -duration 5m -controller none -plot window_p95_ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"autonosql"
	"autonosql/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nosqlsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	buildSpec := specFlags(fs)
	var (
		plot       = fs.String("plot", "", "comma-separated report series to plot (e.g. window_p95_ms,cluster_size)")
		decisions  = fs.Bool("decisions", false, "print the controller decision log")
		recordPath = fs.String("record-trace", "", "record the run's arrival stream to the given JSON-lines trace file")
		traceOps   = fs.String("trace-ops", "", "write sampled op-trace spans (JSON lines) to the given file")
		traceEvery = fs.Int("trace-every", 1, "with -trace-ops, sample every Nth operation")
		chromePath = fs.String("trace-chrome", "", "write the sampled spans as a Chrome trace_event file\n(load in chrome://tracing or Perfetto)")
		audit      = fs.Bool("audit", false, "print the MAPE decision audit trail (smart controller)")
		profile    = fs.Bool("profile", false, "print the engine's self-profiling counters")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := buildSpec()
	if err != nil {
		fmt.Fprintf(stderr, "nosqlsim: %v\n", err)
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
		fmt.Fprintf(stderr, "nosqlsim: %v\n", err)
		return 2
	}
	if *recordPath != "" {
		if err := scenario.RecordTrace(); err != nil {
			fmt.Fprintf(stderr, "nosqlsim: %v\n", err)
			return 2
		}
	}
	report, err := scenario.Run()
	if err != nil {
		fmt.Fprintf(stderr, "nosqlsim: %v\n", err)
		return 1
	}
	if *recordPath != "" {
		trace, err := scenario.RecordedTrace()
		if err != nil {
			fmt.Fprintf(stderr, "nosqlsim: %v\n", err)
			return 1
		}
		if err := trace.WriteFile(*recordPath); err != nil {
			fmt.Fprintf(stderr, "nosqlsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "recorded %d arrivals to %s\n", trace.EventCount(), *recordPath)
	}

	if *traceOps != "" {
		if err := cli.WriteFile(*traceOps, scenario.WriteSpans); err != nil {
			fmt.Fprintf(stderr, "nosqlsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d op-trace spans to %s\n", report.Spans.Sampled, *traceOps)
	}
	if *chromePath != "" {
		if err := cli.WriteFile(*chromePath, scenario.WriteChromeTrace); err != nil {
			fmt.Fprintf(stderr, "nosqlsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote chrome trace to %s\n", *chromePath)
	}

	fmt.Fprint(stdout, report.String())
	if *audit && len(report.Audit) > 0 {
		fmt.Fprintln(stdout, "\naudit trail:")
		for _, e := range report.Audit {
			fmt.Fprintf(stdout, "  %s\n", e)
		}
	}
	if *decisions && len(report.Decisions) > 0 {
		fmt.Fprintln(stdout, "\ncontroller decisions:")
		for _, d := range report.Decisions {
			fmt.Fprintf(stdout, "  %s\n", d)
		}
	}
	if *plot != "" {
		for _, name := range strings.Split(*plot, ",") {
			name = strings.TrimSpace(name)
			if p := report.PlotSeries(name, 50); p != "" {
				fmt.Fprintln(stdout)
				fmt.Fprint(stdout, p)
			} else {
				fmt.Fprintf(stderr, "nosqlsim: unknown series %q\n", name)
			}
		}
	}
	return 0
}

// specFlags declares the flags that shape the scenario on fs and returns the
// function that assembles the ScenarioSpec once fs is parsed.
func specFlags(fs *flag.FlagSet) func() (autonosql.ScenarioSpec, error) {
	spec := autonosql.DefaultScenarioSpec()
	spec.Controller.Mode = autonosql.ControllerNone
	cli.Bind(fs, &spec, cli.Duration, cli.Nodes, cli.NodeOps, cli.MaxNodes, cli.Base, cli.Peak,
		cli.Pattern, cli.Controller, cli.Predictive, cli.SLAWindow, cli.NoisyNeighbour,
		cli.Tenants, cli.Admission, cli.Placement, cli.Faults)
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "random seed")
	fs.IntVar(&spec.Store.ReplicationFactor, "rf", spec.Store.ReplicationFactor, "replication factor")
	readCL := fs.String("read-cl", "ONE", "read consistency level (ONE, TWO, QUORUM, ALL)")
	writeCL := fs.String("write-cl", "ONE", "write consistency level (ONE, TWO, QUORUM, ALL)")
	fs.Float64Var(&spec.Workload.ReadFraction, "read-fraction", spec.Workload.ReadFraction, "fraction of operations that are reads")
	fs.IntVar(&spec.Workload.Keyspace, "keys", spec.Workload.Keyspace, "keyspace size")
	fs.Float64Var(&spec.Monitor.ProbeRate, "probe-rate", spec.Monitor.ProbeRate, "active read-after-write probes per second (0 disables)")
	replayPath := fs.String("replay-trace", "", "replay arrivals from the given trace file instead of generating them\n(the trace's tenants must match -tenants)")
	scaleTrace := fs.Float64("scale-trace", 1, "multiply every replayed arrival time by this factor (with -replay-trace;\n1.0 replays the trace bit-for-bit)")
	return func() (autonosql.ScenarioSpec, error) {
		spec.Store.ReadConsistency = autonosql.ConsistencyLevel(strings.ToUpper(*readCL))
		spec.Store.WriteConsistency = autonosql.ConsistencyLevel(strings.ToUpper(*writeCL))
		spec.Monitor.ActiveProbes = spec.Monitor.ProbeRate > 0
		if *replayPath == "" {
			if *scaleTrace != 1 {
				return spec, errors.New("-scale-trace needs -replay-trace")
			}
			return spec, nil
		}
		trace, err := autonosql.ReadWorkloadTraceFile(*replayPath)
		if err == nil && *scaleTrace != 1 {
			trace, err = trace.Scale(*scaleTrace)
		}
		spec.Replay = trace
		return spec, err
	}
}
