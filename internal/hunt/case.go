package hunt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"autonosql"
)

// Case is one persisted adversarial finding: the minimal spec the hunter
// shrank to, the hunt provenance that found it, and the bit-level pins — the
// run's full report fingerprint, the objective score's exact float bits, and
// (as a sibling .trace.jsonl file) the recorded arrival trace. Verify re-runs
// the spec live and replays the trace, requiring both to reproduce the
// fingerprint byte-for-byte, so a committed case doubles as a regression
// golden for the exact behaviour it pinned.
type Case struct {
	Name       string    `json:"name"`
	Objective  Objective `json:"objective"`
	HunterSeed int64     `json:"hunter_seed"`
	BaseScore  float64   `json:"base_score"`
	Score      float64   `json:"score"`
	// ScoreBits is Score's exact float64 bit pattern in hex: JSON float
	// round-trips are not bit-exact, the pin must be.
	ScoreBits   string                 `json:"score_bits"`
	Mutations   []string               `json:"mutations"`
	Fingerprint string                 `json:"fingerprint"`
	Spec        autonosql.ScenarioSpec `json:"spec"`
}

// scoreBits renders a score for the bit-exact pin.
func scoreBits(v float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(v))
}

// NewCase runs the result's shrunk spec once with trace recording armed and
// assembles the persistable case plus its trace.
func NewCase(name string, cfg Config, res *Result) (*Case, *autonosql.WorkloadTrace, error) {
	scenario, err := autonosql.NewScenario(res.Shrunk)
	if err != nil {
		return nil, nil, fmt.Errorf("hunt: case spec: %w", err)
	}
	if err := scenario.RecordTrace(); err != nil {
		return nil, nil, fmt.Errorf("hunt: %w", err)
	}
	rep, err := scenario.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("hunt: case run: %w", err)
	}
	trace, err := scenario.RecordedTrace()
	if err != nil {
		return nil, nil, fmt.Errorf("hunt: %w", err)
	}
	score := Score(cfg.Objective, rep)
	return &Case{
		Name:        name,
		Objective:   cfg.Objective,
		HunterSeed:  cfg.Seed,
		BaseScore:   res.BaseScore,
		Score:       score,
		ScoreBits:   scoreBits(score),
		Mutations:   res.Mutations,
		Fingerprint: rep.Fingerprint(),
		Spec:        res.Shrunk,
	}, trace, nil
}

// tracePath is the sibling trace file of a case named name in dir.
func tracePath(dir, name string) string {
	return filepath.Join(dir, name+".trace.jsonl")
}

// Save writes the case and its trace under dir as <name>.json and
// <name>.trace.jsonl.
func (c *Case) Save(dir string, trace *autonosql.WorkloadTrace) error {
	if c.Name == "" || strings.ContainsAny(c.Name, "/\\") {
		return fmt.Errorf("hunt: case name %q must be a plain file stem", c.Name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("hunt: %w", err)
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("hunt: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(filepath.Join(dir, c.Name+".json"), data, 0o644); err != nil {
		return fmt.Errorf("hunt: %w", err)
	}
	if err := trace.WriteFile(tracePath(dir, c.Name)); err != nil {
		return fmt.Errorf("hunt: %w", err)
	}
	return nil
}

// LoadCases reads every case under dir, sorted by name.
func LoadCases(dir string) ([]*Case, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("hunt: %w", err)
	}
	var cases []*Case
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("hunt: %w", err)
		}
		// Strict decoding: a key the spec no longer has must fail loudly, not
		// be dropped while the case still claims to pin the same run.
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var c Case
		if err := dec.Decode(&c); err != nil {
			return nil, fmt.Errorf("hunt: %s: %w", e.Name(), err)
		}
		if want := strings.TrimSuffix(e.Name(), ".json"); c.Name != want {
			return nil, fmt.Errorf("hunt: %s declares name %q", e.Name(), c.Name)
		}
		cases = append(cases, &c)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases, nil
}

// Verify re-runs the case and requires bit-for-bit reproduction: the live run
// must match the pinned fingerprint and score bits, and replaying the
// committed trace must reproduce the same fingerprint again.
func (c *Case) Verify(dir string) error {
	scenario, err := autonosql.NewScenario(c.Spec)
	if err != nil {
		return fmt.Errorf("case %s: spec no longer builds: %w", c.Name, err)
	}
	rep, err := scenario.Run()
	if err != nil {
		return fmt.Errorf("case %s: run failed: %w", c.Name, err)
	}
	if got := rep.Fingerprint(); got != c.Fingerprint {
		return fmt.Errorf("case %s: live fingerprint diverged from the committed pin", c.Name)
	}
	score := Score(c.Objective, rep)
	if got := scoreBits(score); got != c.ScoreBits {
		return fmt.Errorf("case %s: score %v (bits %s) diverged from pinned bits %s",
			c.Name, score, got, c.ScoreBits)
	}

	trace, err := autonosql.ReadWorkloadTraceFile(tracePath(dir, c.Name))
	if err != nil {
		return fmt.Errorf("case %s: %w", c.Name, err)
	}
	replaySpec := cloneSpec(c.Spec)
	replaySpec.Replay = trace
	replayScenario, err := autonosql.NewScenario(replaySpec)
	if err != nil {
		return fmt.Errorf("case %s: replay spec: %w", c.Name, err)
	}
	replayRep, err := replayScenario.Run()
	if err != nil {
		return fmt.Errorf("case %s: replay failed: %w", c.Name, err)
	}
	if got := replayRep.Fingerprint(); got != c.Fingerprint {
		return fmt.Errorf("case %s: replayed fingerprint diverged from the committed pin", c.Name)
	}
	return nil
}

// FormatScore renders a score and its pinned bits for logs.
func FormatScore(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64) + " (bits " + scoreBits(v) + ")"
}
