// Command benchrunner regenerates the experiment suite (E1–E5) derived from
// the paper's research questions and prints the result tables and figures.
//
// Usage:
//
//	benchrunner -exp all            # run every experiment at full scale
//	benchrunner -exp e1,e4 -quick   # run a subset at quick scale
//	benchrunner -list               # list available experiments
//
// Performance is measured by the separate perfbench module (see
// PERFORMANCE.md), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"autonosql/internal/experiment"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	var (
		exps  = fs.String("exp", "all", "comma-separated experiment ids (e1..e5) or 'all'")
		quick = fs.Bool("quick", false, "run the reduced quick-scale sweep instead of the full one")
		list  = fs.Bool("list", false, "list available experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, r := range experiment.Runners() {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return 0
	}

	scale := experiment.ScaleFull
	if *quick {
		scale = experiment.ScaleQuick
	}

	var runners []experiment.Runner
	if strings.EqualFold(*exps, "all") {
		runners = experiment.Runners()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			r, ok := experiment.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n", id, strings.Join(experiment.IDs(), ", "))
				return 2
			}
			runners = append(runners, r)
		}
	}

	fmt.Printf("autonosql experiment suite (%s scale)\n\n", scale)
	for _, r := range runners {
		res, err := r.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", r.ID, err)
			return 1
		}
		fmt.Println(res.Format())
	}
	return 0
}
