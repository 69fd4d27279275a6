package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"autonosql"
)

func TestDetectTraceCollisions(t *testing.T) {
	spec := autonosql.DefaultScenarioSpec()
	ok := []autonosql.Variant{
		{Name: "pattern=constant ctl=none", Spec: spec},
		{Name: "pattern=constant ctl=smart", Spec: spec},
	}
	if err := detectTraceCollisions(ok); err != nil {
		t.Fatalf("distinct file names rejected: %v", err)
	}
	// Distinct variant names, identical after sanitization: ' ' and '='
	// both map to '_', so "trace=a b" and "trace=a=b" collide.
	colliding := []autonosql.Variant{
		{Name: "trace=a b", Spec: spec},
		{Name: "trace=a=b", Spec: spec},
	}
	err := detectTraceCollisions(colliding)
	if err == nil {
		t.Fatal("colliding trace file names accepted; traces would silently overwrite")
	}
	if !strings.Contains(err.Error(), "trace=a b") || !strings.Contains(err.Error(), "trace=a=b") {
		t.Errorf("collision error %q does not name both variants", err)
	}
}

// runCLI drives run() with stdout and stderr captured.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestDefaultSpec pins the base spec suiterunner sweeps with no flags, field
// by field, against the values its flags defaulted to before they moved into
// the shared binder.
func TestDefaultSpec(t *testing.T) {
	fs := flag.NewFlagSet("suiterunner", flag.ContinueOnError)
	spec := specFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"-seed", spec.Seed, int64(1)},
		{"-duration", spec.Duration, 5 * time.Minute},
		{"-base", spec.Workload.BaseOpsPerSec, 2000.0},
		{"-peak", spec.Workload.PeakOpsPerSec, 4000.0},
		{"-node-ops", spec.Cluster.NodeOpsPerSec, 2000.0},
		{"-max-nodes", spec.Cluster.MaxNodes, 12},
		{"-tenants", len(spec.Tenants), 0},
		{"-admission", spec.Controller.Admission, autonosql.AdmissionSpec{}},
		{"-placement", spec.Controller.AllowPlacement, false},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: got %v, want %v", f.name, f.got, f.want)
		}
	}
	want := autonosql.DefaultScenarioSpec()
	want.Workload.BaseOpsPerSec = 2000
	want.Workload.PeakOpsPerSec = 4000
	want.Cluster.NodeOpsPerSec = 2000
	want.Cluster.MaxNodes = 12
	if !reflect.DeepEqual(*spec, want) {
		t.Errorf("default spec differs outside the flag-bound fields:\ngot  %+v\nwant %+v", *spec, want)
	}
}

// TestRejectsBadDSL pins the error path of the tenant and admission DSLs and
// of the fault-profile axis: a bad value exits 2 with a message naming it.
func TestRejectsBadDSL(t *testing.T) {
	for _, args := range [][]string{
		{"-tenants", "platinum:constant:100"},
		{"-admission", "maybe"},
		{"-faults", "meteor"},
	} {
		code, _, stderr := runCLI(append(args, "-list")...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr, args[1]) {
			t.Errorf("%v: message does not name the value:\n%s", args, stderr)
		}
	}
}

// TestCLIExportsMatchLibrarySuite pins the command's -csv and -json files,
// streamed through the SuiteAggregator, byte for byte against the in-memory
// SuiteReport exports of a library Suite.Run over the same grid.
func TestCLIExportsMatchLibrarySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	code, out, stderr := runCLI("-duration", "20s", "-patterns", "constant", "-controllers", "none,smart",
		"-nodes", "2", "-base", "600", "-peak", "1200", "-spill-dir", filepath.Join(dir, "spill"),
		"-csv", filepath.Join(dir, "r.csv"), "-json", filepath.Join(dir, "r.json"))
	if code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out, stderr)
	}
	if !strings.Contains(out, "cheapest fully compliant variant") {
		t.Errorf("output missing the cheapest-compliant line:\n%s", out)
	}

	base := autonosql.DefaultScenarioSpec()
	base.Duration = 20 * time.Second
	base.Workload.BaseOpsPerSec = 600
	base.Workload.PeakOpsPerSec = 1200
	base.Cluster.NodeOpsPerSec = 2000
	base.Cluster.MaxNodes = 12
	suite, err := autonosql.NewSuite(autonosql.SuiteSpec{Base: base, Grid: autonosql.Grid{
		Patterns:     []autonosql.LoadPattern{autonosql.LoadConstant},
		Controllers:  []autonosql.ControllerMode{autonosql.ControllerNone, autonosql.ControllerSmart},
		ClusterSizes: []int{2},
		Repeats:      1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	report, err := suite.Run()
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(io.Writer) error{
		"r.csv":  report.WriteCSV,
		"r.json": report.WriteJSON,
	} {
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s differs from the library SuiteReport export", name)
		}
	}
	spilled, err := os.ReadDir(filepath.Join(dir, "spill"))
	if err != nil {
		t.Fatalf("reading spill dir: %v", err)
	}
	if len(spilled) != 2 {
		t.Errorf("spilled %d files, want one per variant (2)", len(spilled))
	}
}
