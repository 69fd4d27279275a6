// Package cli declares the command-line flags that map onto ScenarioSpec
// fields, once for every command: each flag's name, its help text and, for
// the three text-DSL flags, the parser whose error rejects a bad value. A
// command binds the flags it exposes onto its own spec; the spec's field
// values at bind time are the flags' defaults.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"autonosql"
)

// Flag is one ScenarioSpec flag a command can bind.
type Flag struct {
	name, usage string
	def         string // default text of a DSL flag, set by Default
	bind        func(fs *flag.FlagSet, f Flag, spec *autonosql.ScenarioSpec)
}

// The flags, in the order nosqlsim lists them.
var (
	Duration = field("duration", "simulated duration of each run",
		func(s *autonosql.ScenarioSpec) any { return &s.Duration })
	Nodes = field("nodes", "initial cluster size",
		func(s *autonosql.ScenarioSpec) any { return &s.Cluster.InitialNodes })
	NodeOps = field("node-ops", "per-node sustainable ops/s",
		func(s *autonosql.ScenarioSpec) any { return &s.Cluster.NodeOpsPerSec })
	MaxNodes = field("max-nodes", "maximum cluster size reachable through scaling",
		func(s *autonosql.ScenarioSpec) any { return &s.Cluster.MaxNodes })
	Base = field("base", "base offered load in ops/s",
		func(s *autonosql.ScenarioSpec) any { return &s.Workload.BaseOpsPerSec })
	Peak = field("peak", "peak offered load in ops/s for step, diurnal and spike patterns",
		func(s *autonosql.ScenarioSpec) any { return &s.Workload.PeakOpsPerSec })
	Pattern = field("pattern", "load pattern: constant, step, diurnal, spike, diurnal+spike",
		func(s *autonosql.ScenarioSpec) any { return (*string)(&s.Workload.Pattern) })
	Controller = field("controller", "controller: none, reactive, smart",
		func(s *autonosql.ScenarioSpec) any { return (*string)(&s.Controller.Mode) })
	Predictive = field("predictive", "enable predictive scaling (smart controller)",
		func(s *autonosql.ScenarioSpec) any { return &s.Controller.Predictive })
	SLAWindow = field("sla-window", "SLA bound on the p95 inconsistency window",
		func(s *autonosql.ScenarioSpec) any { return &s.SLA.MaxWindowP95 })
	NoisyNeighbour = field("noisy-neighbour", "enable multi-tenant background load",
		func(s *autonosql.ScenarioSpec) any { return &s.Cluster.NoisyNeighbour })
	Tenants = dsl("tenants", "named tenants, comma-separated class:pattern:base[:peak=P][:read=F][:keys=K][:name=N]\n"+
		"(classes: gold, silver, bronze; e.g. \"gold:diurnal:2000,bronze:constant:500\"); replaces -base/-peak/-pattern traffic",
		autonosql.ParseTenantSpecs, func(s *autonosql.ScenarioSpec) *[]autonosql.TenantSpec { return &s.Tenants })
	Admission = dsl("admission", "tenant admission control for the smart controller:\n"+
		"off | on[:mode=M][:frac=F][:floor=R][:cooldown=D][:hold=D] (e.g. \"on:frac=0.4:floor=100\")",
		autonosql.ParseAdmissionSpec, func(s *autonosql.ScenarioSpec) *autonosql.AdmissionSpec { return &s.Controller.Admission })
	Placement = field("placement", "allow the smart controller to dedicate nodes to an SLA class",
		func(s *autonosql.ScenarioSpec) any { return &s.Controller.AllowPlacement })
	Faults = dsl("faults", "fault plan, comma-separated kind:start:duration[:n=N][:sev=S] events\n"+
		"(kinds: crash, slow, partition, storm; e.g. \"crash:1m:30s,storm:2m:30s:sev=0.8\")",
		autonosql.ParseFaultPlan, func(s *autonosql.ScenarioSpec) *autonosql.FaultPlan { return &s.Faults })
)

// Default returns the DSL flag f (Tenants, Admission or Faults) with text as
// its default. The other flags take their default from the bound spec.
func (f Flag) Default(text string) Flag {
	f.def = text
	return f
}

// Bind registers flags on fs, each writing straight into its field of spec.
func Bind(fs *flag.FlagSet, spec *autonosql.ScenarioSpec, flags ...Flag) {
	for _, f := range flags {
		f.bind(fs, f, spec)
	}
}

// field declares a flag whose value is the field itself.
func field(name, usage string, ptr func(*autonosql.ScenarioSpec) any) Flag {
	return Flag{name: name, usage: usage, bind: func(fs *flag.FlagSet, f Flag, s *autonosql.ScenarioSpec) {
		switch p := ptr(s).(type) {
		case *time.Duration:
			fs.DurationVar(p, f.name, *p, f.usage)
		case *int:
			fs.IntVar(p, f.name, *p, f.usage)
		case *float64:
			fs.Float64Var(p, f.name, *p, f.usage)
		case *bool:
			fs.BoolVar(p, f.name, *p, f.usage)
		case *string:
			fs.StringVar(p, f.name, *p, f.usage)
		default:
			panic(fmt.Sprintf("cli: -%s binds unsupported field type %T", f.name, p))
		}
	}}
}

// dsl declares a flag whose text is parsed into the field as it is set, so
// a bad value fails fs.Parse with an error naming the flag and the value.
func dsl[T any](name, usage string, parse func(string) (T, error), ptr func(*autonosql.ScenarioSpec) *T) Flag {
	return Flag{name: name, usage: usage, bind: func(fs *flag.FlagSet, f Flag, s *autonosql.ScenarioSpec) {
		v := &dslValue{set: func(text string) error {
			parsed, err := parse(text)
			if err == nil {
				*ptr(s) = parsed
			}
			return err
		}}
		if f.def != "" {
			if err := v.Set(f.def); err != nil {
				panic(fmt.Sprintf("cli: default -%s %q: %v", f.name, f.def, err))
			}
		}
		fs.Var(v, f.name, f.usage)
	}}
}

// dslValue is the flag.Value of a DSL flag: it keeps the text last set and
// hands it to set, which parses it into the spec.
type dslValue struct {
	text string
	set  func(string) error
}

func (v *dslValue) String() string {
	if v == nil {
		return ""
	}
	return v.text
}

func (v *dslValue) Set(text string) error {
	if err := v.set(text); err != nil {
		return err
	}
	v.text = text
	return nil
}

// WriteFile streams one export into a freshly created file at path.
func WriteFile(path string, write func(io.Writer) error) error {
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
