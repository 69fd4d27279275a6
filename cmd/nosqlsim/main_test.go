package main

import (
	"bytes"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"autonosql"
)

// TestDefaultSpec pins the scenario nosqlsim runs with no flags, field by
// field, against the values its flags defaulted to before they moved into
// the shared binder.
func TestDefaultSpec(t *testing.T) {
	fs := flag.NewFlagSet("nosqlsim", flag.ContinueOnError)
	build := specFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	spec, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"-seed", spec.Seed, int64(1)},
		{"-duration", spec.Duration, 5 * time.Minute},
		{"-nodes", spec.Cluster.InitialNodes, 3},
		{"-node-ops", spec.Cluster.NodeOpsPerSec, 5000.0},
		{"-max-nodes", spec.Cluster.MaxNodes, 16},
		{"-noisy-neighbour", spec.Cluster.NoisyNeighbour, false},
		{"-rf", spec.Store.ReplicationFactor, 3},
		{"-read-cl", spec.Store.ReadConsistency, autonosql.ConsistencyOne},
		{"-write-cl", spec.Store.WriteConsistency, autonosql.ConsistencyOne},
		{"-base", spec.Workload.BaseOpsPerSec, 3000.0},
		{"-peak", spec.Workload.PeakOpsPerSec, 0.0},
		{"-pattern", spec.Workload.Pattern, autonosql.LoadConstant},
		{"-read-fraction", spec.Workload.ReadFraction, 0.5},
		{"-keys", spec.Workload.Keyspace, 10000},
		{"-probe-rate", spec.Monitor.ProbeRate, 1.0},
		{"-probe-rate>0", spec.Monitor.ActiveProbes, true},
		{"-sla-window", spec.SLA.MaxWindowP95, 250 * time.Millisecond},
		{"-controller", spec.Controller.Mode, autonosql.ControllerNone},
		{"-predictive", spec.Controller.Predictive, true},
		{"-admission", spec.Controller.Admission, autonosql.AdmissionSpec{}},
		{"-placement", spec.Controller.AllowPlacement, false},
		{"-tenants", len(spec.Tenants), 0},
		{"-faults", len(spec.Faults.Faults), 0},
		{"-replay-trace", spec.Replay == nil, true},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: got %v, want %v", f.name, f.got, f.want)
		}
	}
	want := autonosql.DefaultScenarioSpec()
	want.Controller.Mode = autonosql.ControllerNone
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("default spec differs outside the flag-bound fields:\ngot  %+v\nwant %+v", spec, want)
	}
}

// TestAutoscaleFlags pins that nosqlsim, given the defaults of the former
// autoscale command as explicit flags, prints what that command printed: the
// report, the decision log and the offered-load, cluster-size and window
// timelines of a library run of the same spec.
func TestAutoscaleFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-controller", "smart", "-pattern", "diurnal", "-base", "1000", "-peak", "3000",
		"-duration", "3m", "-nodes", "3", "-max-nodes", "12", "-node-ops", "2000",
		"-sla-window", "150ms", "-decisions",
		"-plot", "offered_ops_per_sec,cluster_size,window_p95_ms",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}

	spec := autonosql.DefaultScenarioSpec()
	spec.Duration = 3 * time.Minute
	spec.Cluster.InitialNodes = 3
	spec.Cluster.MaxNodes = 12
	spec.Cluster.NodeOpsPerSec = 2000
	spec.Workload.Pattern = autonosql.LoadDiurnal
	spec.Workload.BaseOpsPerSec = 1000
	spec.Workload.PeakOpsPerSec = 3000
	spec.SLA.MaxWindowP95 = 150 * time.Millisecond
	spec.Controller.Mode = autonosql.ControllerSmart
	spec.Controller.Predictive = true
	scenario, err := autonosql.NewScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	report, err := scenario.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Decisions) == 0 {
		t.Fatal("the smart controller made no decisions; the decision log goes unchecked")
	}
	var want strings.Builder
	want.WriteString(report.String())
	want.WriteString("\ncontroller decisions:\n")
	for _, d := range report.Decisions {
		want.WriteString("  " + d + "\n")
	}
	for _, s := range []string{autonosql.SeriesOfferedLoad, autonosql.SeriesClusterSize, autonosql.SeriesWindowP95} {
		want.WriteString("\n" + report.PlotSeries(s, 50))
	}
	if got := stdout.String(); got != want.String() {
		t.Errorf("stdout differs from the library run\ngot:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestRejectsBadDSL pins the shared error path: a malformed DSL value exits
// 2 with a message naming the value.
func TestRejectsBadDSL(t *testing.T) {
	for _, args := range [][]string{
		{"-tenants", "platinum:constant:100"},
		{"-admission", "maybe"},
		{"-faults", "meteor:1m:30s"},
	} {
		var stderr bytes.Buffer
		if code := run(args, io.Discard, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), args[1]) {
			t.Errorf("%v: message does not name the value:\n%s", args, stderr.String())
		}
	}
}
