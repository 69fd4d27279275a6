package autonosql_test

// Fingerprint pins for the runs no golden covers: delay-mode and shed-mode
// admission, and placement under the smart controller with faults. A change
// that is meant to be behaviour-neutral must leave all three hashes as they
// are.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"autonosql"
)

func fingerprintHash(r *autonosql.Report) string {
	sum := sha256.Sum256([]byte(r.Fingerprint()))
	return hex.EncodeToString(sum[:])
}

// pinnedAutoscaleSpec is the benchmark's autoscale workload (three tenants,
// delay-mode admission, placement, a crash, a partition and a storm) at a
// fixed seed.
func pinnedAutoscaleSpec() autonosql.ScenarioSpec {
	const d = 4 * time.Minute
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = 99
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
	return spec
}

func TestPinnedFingerprints(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) *autonosql.Report
		want string
	}{
		{"delay", func(t *testing.T) *autonosql.Report {
			return runThrottledScenario(t, autonosql.AdmissionDelay)
		}, "33ab7f5906e5bbe22fa6d35cea2c299e2443997ce97785527f6ae68d122b36c5"},
		{"shed", func(t *testing.T) *autonosql.Report {
			return runThrottledScenario(t, autonosql.AdmissionShed)
		}, "4d4bf193552b8e8b79894c843294a753cf1cbabd02f746de9d32d6b905e2340a"},
		{"autoscale", func(t *testing.T) *autonosql.Report {
			scenario, err := autonosql.NewScenario(pinnedAutoscaleSpec())
			if err != nil {
				t.Fatalf("NewScenario: %v", err)
			}
			rep, err := scenario.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			return rep
		}, "033971301452efd1f44a98d59dc6eab4eb12c9b595308dc5c2077e4ab7593b99"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if got := fingerprintHash(c.run(t)); got != c.want {
				t.Errorf("fingerprint sha256 = %s, want %s", got, c.want)
			}
		})
	}
}
