package hunt

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"autonosql"
)

// huntBase is a small two-tenant base spec: big enough for the objectives to
// move, small enough that a full hunt stays test-sized.
func huntBase() autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = 1
	spec.Duration = 30 * time.Second
	spec.Cluster.InitialNodes = 3
	spec.Cluster.NodeOpsPerSec = 2500
	spec.Controller.Mode = autonosql.ControllerSmart
	spec.Controller.Admission = autonosql.AdmissionSpec{Enabled: true}
	spec.Tenants = []autonosql.TenantSpec{
		{Name: "gold", Class: autonosql.SLAGold, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadDiurnal, BaseOpsPerSec: 800, PeakOpsPerSec: 1400, ReadFraction: 0.6,
		}},
		{Name: "bronze", Class: autonosql.SLABronze, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadSpike, BaseOpsPerSec: 300, PeakOpsPerSec: 1800, ReadFraction: 0.2,
		}},
	}
	return spec
}

// TestHuntDeterministic is the harness's core guarantee: the same base spec
// and hunter seed produce the identical hunt — same worst score, same
// minimal mutation set, same shrunk spec — whatever the parallelism. The CI
// race job runs this under -race, so the parallel evaluator is also checked
// for data races.
func TestHuntDeterministic(t *testing.T) {
	run := func(parallelism int) *Result {
		res, err := Run(Config{
			Base:        huntBase(),
			Objective:   ObjectiveGoldViolations,
			Seed:        7,
			Rounds:      2,
			Neighbors:   3,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a := run(1)
	b := run(4)

	if a.WorstScore != b.WorstScore || a.ShrunkScore != b.ShrunkScore || a.BaseScore != b.BaseScore {
		t.Errorf("scores diverged across parallelism: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.Mutations, b.Mutations) {
		t.Errorf("minimal mutation sets diverged:\n  seq: %v\n  par: %v", a.Mutations, b.Mutations)
	}
	if !reflect.DeepEqual(a.Shrunk, b.Shrunk) {
		t.Error("shrunk specs diverged across parallelism")
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("evaluation counts diverged: %d vs %d", a.Evaluations, b.Evaluations)
	}
	// The shrunk spec must actually reproduce its score when run cold.
	scenario, err := autonosql.NewScenario(a.Shrunk)
	if err != nil {
		t.Fatalf("NewScenario(shrunk): %v", err)
	}
	rep, err := scenario.Run()
	if err != nil {
		t.Fatalf("Run(shrunk): %v", err)
	}
	if got := Score(ObjectiveGoldViolations, rep); got != a.ShrunkScore {
		t.Errorf("cold re-run of the shrunk spec scored %v, hunt reported %v", got, a.ShrunkScore)
	}
}

// TestHuntShrinkKeepsFloor pins the shrink contract: the shrunk score stays
// at or above the keep fraction of the worst score, and the mutation list
// never grows under shrinking.
func TestHuntShrinkKeepsFloor(t *testing.T) {
	res, err := Run(Config{
		Base:               huntBase(),
		Objective:          ObjectiveGoldViolations,
		Seed:               1,
		Rounds:             3,
		Neighbors:          4,
		ShrinkKeepFraction: 0.9,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WorstScore < res.BaseScore {
		t.Errorf("hill climb went downhill: worst %v < base %v", res.WorstScore, res.BaseScore)
	}
	if res.ShrunkScore < 0.9*res.WorstScore {
		t.Errorf("shrunk score %v fell below the 0.9 floor of worst %v", res.ShrunkScore, res.WorstScore)
	}
}

// TestParseObjective covers the objective names.
func TestParseObjective(t *testing.T) {
	for _, good := range []string{"gold-violations", "shed-storm", "oscillation", "cost-blowup"} {
		if _, err := ParseObjective(good); err != nil {
			t.Errorf("ParseObjective(%q): %v", good, err)
		}
	}
	if _, err := ParseObjective("chaos"); err == nil {
		t.Error("unknown objective accepted")
	}
}

// TestScoreObjectives pins the scoring arithmetic on synthetic reports.
func TestScoreObjectives(t *testing.T) {
	rep := &autonosql.Report{
		Violations: autonosql.Violations{Total: 5},
		Cost:       autonosql.CostSummary{Total: 123.5},
		Tenants: []autonosql.TenantReport{
			{Name: "g", Class: "gold", Violations: autonosql.Violations{Total: 2}, ShedOps: 10},
			{Name: "b", Class: "bronze", Violations: autonosql.Violations{Total: 7}, ShedOps: 30},
		},
		Series: map[string][]autonosql.SeriesPoint{
			autonosql.SeriesClusterSize: {
				{Value: 3}, {Value: 4}, {Value: 5}, {Value: 4}, {Value: 4}, {Value: 5}, {Value: 3},
			},
		},
	}
	if got := Score(ObjectiveGoldViolations, rep); got != 2 {
		t.Errorf("gold-violations = %v, want 2 (gold tenant only)", got)
	}
	if got := Score(ObjectiveShedStorm, rep); got != 40 {
		t.Errorf("shed-storm = %v, want 40", got)
	}
	// up, up, down, flat, up, down -> direction changes at down(5->4),
	// up(4->5), down(5->3) = 3.
	if got := Score(ObjectiveOscillation, rep); got != 3 {
		t.Errorf("oscillation = %v, want 3", got)
	}
	if got := Score(ObjectiveCostBlowup, rep); got != 123.5 {
		t.Errorf("cost-blowup = %v, want 123.5", got)
	}
	// No tenants: gold-violations falls back to the aggregate.
	rep.Tenants = nil
	if got := Score(ObjectiveGoldViolations, rep); got != 5 {
		t.Errorf("tenantless gold-violations = %v, want 5", got)
	}
}

// TestCaseSaveLoadVerify round-trips a found case through disk and the full
// bit-for-bit verification (live re-run + trace replay).
func TestCaseSaveLoadVerify(t *testing.T) {
	cfg := Config{
		Base:      huntBase(),
		Objective: ObjectiveGoldViolations,
		Seed:      7,
		Rounds:    1,
		Neighbors: 2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	c, trace, err := NewCase("unit_case", cfg, res)
	if err != nil {
		t.Fatalf("NewCase: %v", err)
	}
	dir := t.TempDir()
	if err := c.Save(dir, trace); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadCases(dir)
	if err != nil {
		t.Fatalf("LoadCases: %v", err)
	}
	if len(loaded) != 1 || loaded[0].Name != "unit_case" {
		t.Fatalf("LoadCases = %+v, want the one saved case", loaded)
	}
	if loaded[0].Fingerprint != c.Fingerprint || loaded[0].ScoreBits != c.ScoreBits {
		t.Fatal("case pins did not survive the JSON round trip")
	}
	if err := loaded[0].Verify(dir); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// A tampered pin must fail verification.
	loaded[0].Fingerprint += "x"
	if err := loaded[0].Verify(dir); err == nil {
		t.Fatal("Verify accepted a tampered fingerprint")
	}
}

// TestLoadCasesRejectsUnknownKeys pins strict case decoding: a key the spec
// no longer has (here the deleted Shards field) fails the load with an error
// naming the file, instead of being dropped while the case still claims to
// pin the same run.
func TestLoadCasesRejectsUnknownKeys(t *testing.T) {
	data, err := json.Marshal(Case{Name: "stale", Spec: huntBase()})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["spec"].(map[string]any)["Shards"] = 1
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stale.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCases(dir)
	if err == nil {
		t.Fatal("LoadCases accepted a case with an unknown spec key")
	}
	if !strings.Contains(err.Error(), "stale.json") || !strings.Contains(err.Error(), "Shards") {
		t.Errorf("error %q does not name the file and the unknown key", err)
	}
}

// TestAdversarialCorpus re-verifies every committed adversarial golden under
// testdata/adversarial bit-for-bit: live re-run matches the pinned
// fingerprint and score bits, and replaying the committed trace reproduces
// the fingerprint again.
func TestAdversarialCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "adversarial")
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		t.Skip("no committed adversarial corpus")
	}
	cases, err := LoadCases(dir)
	if err != nil {
		t.Fatalf("LoadCases: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("adversarial corpus directory exists but holds no cases")
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := c.Verify(dir); err != nil {
				t.Fatal(err)
			}
			if c.Score <= c.BaseScore {
				t.Errorf("case score %v does not beat its base %v: not adversarial", c.Score, c.BaseScore)
			}
		})
	}
}

// TestCrossoverSplice pins the recombination shape: a child is a prefix of
// parent a followed by a suffix of parent b, cut points drawn from the shared
// stream — so a given rng state always yields the same child, and the child's
// mutations are the parents' own (pure, hence replayable) closures.
func TestCrossoverSplice(t *testing.T) {
	mut := func(name string) Mutation {
		return Mutation{Desc: name, Apply: func(*autonosql.ScenarioSpec) {}}
	}
	a := []Mutation{mut("a0"), mut("a1"), mut("a2")}
	b := []Mutation{mut("b0"), mut("b1")}
	for seed := int64(0); seed < 20; seed++ {
		first := crossover(rand.New(rand.NewSource(seed)), a, b)
		again := crossover(rand.New(rand.NewSource(seed)), a, b)
		if len(first) != len(again) {
			t.Fatalf("seed %d: crossover not deterministic", seed)
		}
		boundary := -1
		for i, m := range first {
			if m.Desc != again[i].Desc {
				t.Fatalf("seed %d: crossover not deterministic at %d", seed, i)
			}
			fromB := m.Desc[0] == 'b'
			if fromB && boundary < 0 {
				boundary = i
			}
			if !fromB && boundary >= 0 {
				t.Fatalf("seed %d: parent-a mutation %q after the splice point", seed, m.Desc)
			}
		}
		if len(first) > len(a)+len(b) {
			t.Fatalf("seed %d: child longer than both parents combined", seed)
		}
	}
}

// TestHuntCrossoverDeterministic runs a hunt long enough for the crossover
// path (elite from round one, recombined candidate in round two) to engage and
// pins that it stays deterministic across parallelism like the rest of the
// search.
func TestHuntCrossoverDeterministic(t *testing.T) {
	run := func(parallelism int) *Result {
		res, err := Run(Config{
			Base:        huntBase(),
			Objective:   ObjectiveCostBlowup,
			Seed:        3,
			Rounds:      3,
			Neighbors:   3,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a := run(1)
	b := run(4)
	if a.WorstScore != b.WorstScore || a.Evaluations != b.Evaluations {
		t.Errorf("crossover hunt diverged across parallelism: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.Mutations, b.Mutations) {
		t.Errorf("minimal mutation sets diverged:\n  seq: %v\n  par: %v", a.Mutations, b.Mutations)
	}
	// Rounds 2 and 3 each add one crossover candidate on top of the
	// Neighbors mutants (round 1 has no elite yet): base + 3 rounds of 3
	// + 2 crossovers + shrink evaluations >= 12 search runs.
	if a.Evaluations < 1+3*3+2 {
		t.Errorf("evaluation count %d too low for the crossover schedule", a.Evaluations)
	}
}

// TestMutationsPure pins the shrink precondition: applying a mutation twice
// to fresh clones of the same spec yields identical specs, and applying it
// never mutates the base.
func TestMutationsPure(t *testing.T) {
	base := huntBase()
	before, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	h := &hunter{cfg: Config{Base: base}, rng: rand.New(rand.NewSource(99))}
	for i := 0; i < 50; i++ {
		m := h.newMutation(base)
		a := cloneSpec(base)
		b := cloneSpec(base)
		m.Apply(&a)
		m.Apply(&b)
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("mutation %q is not deterministic", m.Desc)
		}
	}
	after, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("mutations modified the base spec through aliasing")
	}
}
