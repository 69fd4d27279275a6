package autonosql_test

// Observability tests: the deterministic tracing/audit/profiling layer must
// be (a) invisible — enabling it cannot perturb the simulation, so the
// committed golden fingerprints still hold bit-for-bit — and (b) itself
// deterministic — span and audit exports are stamped in virtual time only.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"autonosql"
)

// observedSpec arms every observability surface on top of a golden spec.
func observedSpec(spec autonosql.ScenarioSpec) autonosql.ScenarioSpec {
	spec.Observe = &autonosql.ObserveSpec{
		TraceOps:    true,
		SampleEvery: 50,
		Audit:       true,
		Profile:     true,
	}
	return spec
}

// observedRun runs spec and returns the report plus the JSONL span export.
func observedRun(t *testing.T, spec autonosql.ScenarioSpec) (*autonosql.Report, []byte, []byte) {
	t.Helper()
	scenario, err := autonosql.NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	rep, err := scenario.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var spans, chrome bytes.Buffer
	if err := scenario.WriteSpans(&spans); err != nil {
		t.Fatalf("WriteSpans: %v", err)
	}
	if err := scenario.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return rep, spans.Bytes(), chrome.Bytes()
}

// TestShardObservabilityInvariance pins that the observability exports are
// themselves deterministic: the span export, the Chrome trace and the MAPE
// audit trail are byte-identical across repeated runs of the same spec, over
// a smart-controller run, the throttled two-tenant admission scenario, a
// controllerless two-tenant run and a partition/heal fault run. The name
// dates from when the comparison was across shard counts; with a single
// event loop the invariant left is run-to-run identity, which holds because
// spans and decisions are stamped in virtual time only.
func TestShardObservabilityInvariance(t *testing.T) {
	smart := goldenSpec(1234, autonosql.ControllerSmart)
	smart.Duration = 90 * time.Second
	partition := goldenFaultSpec(7777)
	partition.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
		autonosql.PartitionFault(20*time.Second, 40*time.Second, 2),
	}}
	cases := []struct {
		name      string
		spec      autonosql.ScenarioSpec
		wantAudit bool
	}{
		{"smart", smart, true},
		{"throttle", throttledSpec(2026), true},
		{"twotenants", twoTenantSpec(4711, autonosql.ControllerNone), false},
		{"partition", partition, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var wantSpans, wantChrome, wantAudit []byte
			for run := 0; run < 2; run++ {
				rep, spans, chrome := observedRun(t, observedSpec(c.spec))
				audit, err := json.Marshal(rep.Audit)
				if err != nil {
					t.Fatalf("marshal audit: %v", err)
				}
				if rep.Spans == nil || rep.Spans.Sampled == 0 {
					t.Fatalf("run %d: report Spans = %+v, want sampled > 0", run, rep.Spans)
				}
				if c.wantAudit && len(rep.Audit) == 0 {
					t.Fatalf("run %d: controller run produced no audit entries", run)
				}
				if run == 0 {
					wantSpans, wantChrome, wantAudit = spans, chrome, audit
					continue
				}
				if !bytes.Equal(spans, wantSpans) {
					t.Error("span export diverged between identical runs")
				}
				if !bytes.Equal(chrome, wantChrome) {
					t.Error("chrome trace diverged between identical runs")
				}
				if !bytes.Equal(audit, wantAudit) {
					t.Error("audit trail diverged between identical runs")
				}
			}
		})
	}
}

// TestObserveZeroEffect pins a zero observer effect: running the committed
// golden scenarios with every observability surface armed must reproduce the
// committed fingerprints bit-for-bit, because tracing only annotates ops the
// simulation was executing anyway and never schedules events of its own. The
// family covers the controller, admission, multi-tenant and fault paths, and
// every observed run must actually sample spans (and, under a controller,
// record audit entries) so the pin is not vacuous.
func TestObserveZeroEffect(t *testing.T) {
	smart := goldenSpec(1234, autonosql.ControllerSmart)
	smart.Duration = 2 * time.Minute
	partition := goldenFaultSpec(7777)
	partition.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
		autonosql.PartitionFault(20*time.Second, 40*time.Second, 2),
	}}
	cases := []struct {
		name      string
		golden    string
		spec      autonosql.ScenarioSpec
		wantAudit bool
	}{
		{"none", "scenario_none_seed42", goldenSpec(42, autonosql.ControllerNone), false},
		{"smart", "scenario_smart_seed1234", smart, true},
		{"throttle", "scenario_throttle_seed2026", throttledSpec(2026), true},
		{"twotenants", "scenario_twotenants_seed4711", twoTenantSpec(4711, autonosql.ControllerNone), false},
		{"partition", "scenario_partition_seed7777", partition, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := readGoldenFile(t, c.golden)
			rep, spans, _ := observedRun(t, observedSpec(c.spec))
			if got := fingerprintReport(rep); got != want {
				t.Errorf("observed run's fingerprint diverged from golden_%s.txt", c.golden)
			}
			if len(spans) == 0 {
				t.Error("observed run exported no spans")
			}
			if rep.Spans == nil || rep.Spans.Sampled == 0 {
				t.Errorf("report Spans = %+v, want sampled > 0", rep.Spans)
			}
			if c.wantAudit && len(rep.Audit) == 0 {
				t.Error("controller run produced no audit entries")
			}
		})
	}
}

// TestObserveDisabledReportOmitsSections pins the wire format: a report from
// a run without Observe carries no Audit/Spans/Profile JSON keys, so every
// pre-observability consumer sees byte-identical documents.
func TestObserveDisabledReportOmitsSections(t *testing.T) {
	rep := runGoldenScenario(t, goldenSpec(42, autonosql.ControllerNone))
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	for _, key := range []string{`"Audit"`, `"Spans"`, `"Profile"`} {
		if strings.Contains(string(raw), key) {
			t.Errorf("Observe-disabled report JSON contains %s", key)
		}
	}
}

// TestObserveMaxTraces pins the retention cap: with MaxTraces set the tracer
// keeps the newest N sampled traces, counts the evicted rest as Dropped, and
// the export carries exactly N lines.
func TestObserveMaxTraces(t *testing.T) {
	spec := goldenSpec(42, autonosql.ControllerNone)
	spec.Observe = &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 10, MaxTraces: 25}
	rep, spans, _ := observedRun(t, spec)
	if rep.Spans == nil {
		t.Fatal("report has no span stats")
	}
	if rep.Spans.Sampled <= 25 {
		t.Fatalf("Sampled = %d, want more elections than the cap retains", rep.Spans.Sampled)
	}
	if got, want := rep.Spans.Dropped, rep.Spans.Sampled-25; got != want {
		t.Fatalf("Dropped = %d, want Sampled-MaxTraces = %d", got, want)
	}
	if lines := bytes.Count(spans, []byte{'\n'}); lines != 25 {
		t.Fatalf("span export has %d lines, want 25", lines)
	}
}
