package workload

import (
	"errors"
	"math/rand"
	"time"

	"autonosql/internal/sim"
	"autonosql/internal/store"
)

// Mix describes the read/write composition of a workload.
type Mix struct {
	// ReadFraction is the fraction of operations that are reads, in [0, 1].
	ReadFraction float64
}

// YCSB-style workload presets. The key distributions follow the published
// YCSB core workloads; absolute rates come from the load profile.
type Preset string

// Presets.
const (
	// PresetA is update heavy: 50% reads, 50% writes, zipfian keys.
	PresetA Preset = "A"
	// PresetB is read mostly: 95% reads, zipfian keys.
	PresetB Preset = "B"
	// PresetC is read only, zipfian keys.
	PresetC Preset = "C"
	// PresetD is read latest: 95% reads skewed to recent inserts.
	PresetD Preset = "D"
	// PresetF is read-modify-write approximated as 50/50 on zipfian keys.
	PresetF Preset = "F"
)

// PresetSpec returns the mix and a key chooser factory for a preset.
func PresetSpec(p Preset, keyspace int, rnd *sim.RandSource) (Mix, KeyChooser, error) {
	rng := rnd.Stream("keys-" + string(p))
	switch p {
	case PresetA:
		return Mix{ReadFraction: 0.5}, NewZipfianKeys(keyspace, 1.3, rng), nil
	case PresetB:
		return Mix{ReadFraction: 0.95}, NewZipfianKeys(keyspace, 1.3, rng), nil
	case PresetC:
		return Mix{ReadFraction: 1.0}, NewZipfianKeys(keyspace, 1.3, rng), nil
	case PresetD:
		return Mix{ReadFraction: 0.95}, NewLatestKeys(keyspace, rng), nil
	case PresetF:
		return Mix{ReadFraction: 0.5}, NewZipfianKeys(keyspace, 1.3, rng), nil
	default:
		return Mix{}, nil, errors.New("workload: unknown preset " + string(p))
	}
}

// Target is the subset of the store API the generator drives. *store.Store
// satisfies it. A nil callback is allowed: the caller does not want the
// result.
type Target interface {
	Read(key store.Key, cb func(store.Result))
	Write(key store.Key, cb func(store.Result))
}

// Config configures a Generator.
type Config struct {
	// Profile drives the offered rate over time.
	Profile LoadProfile
	// Mix is the read/write split.
	Mix Mix
	// Keys selects keys per operation.
	Keys KeyChooser
	// Until stops the generator at this virtual time (0 = run until Stop).
	Until time.Duration
	// ArrivalStream names the random stream the inter-arrival draws come
	// from; it defaults to "arrivals". Scenarios hosting several generators
	// (one per tenant) must give each its own name, or every generator would
	// replay the same arrival sequence.
	ArrivalStream string
}

// Generator issues open-loop Poisson traffic against a Target. It is a pure
// driver: operations are issued without a completion callback, and the
// outcomes are recorded by the layers that read them (the monitor, the tenant
// runtime and the store's ground truth).
type Generator struct {
	cfg    Config
	engine *sim.Engine
	target Target
	rng    *sim.RandSource

	stopped  bool
	lastRate float64

	// arrivals is the dedicated inter-arrival random stream, bound at Start.
	arrivals *rand.Rand
	// tickFn is the per-arrival handler, bound once so the open-loop arrival
	// chain does not allocate a closure per operation.
	tickFn sim.Handler
}

// NewGenerator creates a generator. Start must be called to begin issuing
// traffic.
func NewGenerator(cfg Config, engine *sim.Engine, target Target, rnd *sim.RandSource) (*Generator, error) {
	if engine == nil || target == nil || rnd == nil {
		return nil, errors.New("workload: engine, target and rand source are required")
	}
	if cfg.Profile == nil {
		return nil, errors.New("workload: load profile is required")
	}
	if cfg.Keys == nil {
		return nil, errors.New("workload: key chooser is required")
	}
	if cfg.Mix.ReadFraction < 0 || cfg.Mix.ReadFraction > 1 {
		return nil, errors.New("workload: read fraction must be within [0, 1]")
	}
	g := &Generator{cfg: cfg, engine: engine, target: target, rng: rnd}
	g.tickFn = g.tick
	return g, nil
}

// Intercept replaces the generator's target with wrap(target). Trace
// recording uses it to splice a recorder between the generator and the system
// under test. It must be called before Start.
func (g *Generator) Intercept(wrap func(Target) Target) {
	g.target = wrap(g.target)
}

// Start schedules the first arrival.
func (g *Generator) Start() {
	name := g.cfg.ArrivalStream
	if name == "" {
		name = "arrivals"
	}
	g.arrivals = g.rng.Stream(name)
	g.scheduleNext()
}

func (g *Generator) scheduleNext() {
	now := g.engine.Now()
	if g.stopped {
		return
	}
	if g.cfg.Until > 0 && now >= g.cfg.Until {
		return
	}
	rate := g.cfg.Profile.Rate(now)
	g.lastRate = rate
	var gap time.Duration
	if rate <= 0 {
		// Idle period: re-evaluate the profile shortly.
		gap = 100 * time.Millisecond
	} else {
		gap = time.Duration(sim.Exponential(g.arrivals, float64(time.Second)/rate))
		if gap <= 0 {
			gap = time.Microsecond
		}
		if gap > 10*time.Second {
			gap = 10 * time.Second
		}
	}
	g.engine.After(gap, g.tickFn)
}

// tick fires one arrival: issue an operation at the rate captured when the
// arrival was scheduled (zero-rate ticks only re-evaluate the profile), then
// schedule the next arrival.
func (g *Generator) tick(time.Duration) {
	if g.stopped {
		return
	}
	if g.lastRate > 0 {
		g.issueOne(g.arrivals)
	}
	g.scheduleNext()
}

func (g *Generator) issueOne(rng *rand.Rand) {
	if rng.Float64() < g.cfg.Mix.ReadFraction {
		g.target.Read(g.cfg.Keys.NextRead(), nil)
		return
	}
	g.target.Write(g.cfg.Keys.NextWrite(), nil)
}

// Stop halts further arrivals. In-flight operations still complete.
func (g *Generator) Stop() { g.stopped = true }
