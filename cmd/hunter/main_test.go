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

// TestDefaultSpec pins the base spec hunter searches from with no flags,
// field by field, against the values its flags defaulted to before they
// moved into the shared binder.
func TestDefaultSpec(t *testing.T) {
	fs := flag.NewFlagSet("hunter", flag.ContinueOnError)
	spec := specFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	tenants := []autonosql.TenantSpec{
		{Name: "gold", Class: autonosql.SLAGold, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadDiurnal, BaseOpsPerSec: 800, PeakOpsPerSec: 1400, ReadFraction: 0.6,
		}},
		{Name: "bronze", Class: autonosql.SLABronze, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadSpike, BaseOpsPerSec: 300, PeakOpsPerSec: 1800, ReadFraction: 0.2,
		}},
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"-base-seed", spec.Seed, int64(1)},
		{"-duration", spec.Duration, 60 * time.Second},
		{"-nodes", spec.Cluster.InitialNodes, 3},
		{"-node-ops", spec.Cluster.NodeOpsPerSec, 2500.0},
		{"-controller", spec.Controller.Mode, autonosql.ControllerSmart},
		{"-tenants", spec.Tenants, tenants},
		{"-admission", spec.Controller.Admission, autonosql.AdmissionSpec{Enabled: true}},
		{"-faults", len(spec.Faults.Faults), 0},
		{"-placement", spec.Controller.AllowPlacement, false},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: got %+v, want %+v", f.name, f.got, f.want)
		}
	}
	want := autonosql.DefaultScenarioSpec()
	want.Duration = 60 * time.Second
	want.Cluster.NodeOpsPerSec = 2500
	want.Tenants = tenants
	want.Controller.Admission = autonosql.AdmissionSpec{Enabled: true}
	if !reflect.DeepEqual(*spec, want) {
		t.Errorf("default spec differs outside the flag-bound fields:\ngot  %+v\nwant %+v", *spec, want)
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
