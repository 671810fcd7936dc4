// Command simtest runs the cross-layer invariant swarm from the command
// line: randomized worlds for soak testing, single-seed reproduction, and
// seed shrinking. A world is a scenario spec (the JSON POST /v1/scenario
// accepts) plus the simtest-only knobs jammer and breakWidening.
//
//	simtest -worlds 500                 # swarm over seeds [1, 501)
//	simtest -seed 42                    # rerun one generated world
//	simtest -seed 42 -shrink            # ...and minimise it if it fails
//	simtest -seed 42 -spec '{"version":1}' -p breakWidening=0.5   # explicit world
//	simtest -seed 42 -spec world.json   # ...with the spec read from a file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"injectable/internal/scenario"
	"injectable/internal/simtest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// knobFlags collects repeated -p key=value overrides.
type knobFlags []string

func (p *knobFlags) String() string { return strings.Join(*p, ",") }

func (p *knobFlags) Set(v string) error {
	*p = append(*p, v)
	return nil
}

// options is a parsed command line.
type options struct {
	seed         int64
	worlds       int
	seedBase     uint64
	parallel     int
	shrink, fork bool
	verbose      bool
	spec         *scenario.Spec // nil: generate each world from its seed
	knobs        knobFlags
}

// parse reads the command line; a usage error has already been reported
// on stderr.
func parse(argv []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("simtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.seed, "seed", -1, "run a single world with this seed (default: swarm mode)")
	fs.IntVar(&o.worlds, "worlds", 50, "swarm mode: number of consecutive seeds to run")
	fs.Uint64Var(&o.seedBase, "seed-base", 1, "swarm mode: first seed")
	fs.IntVar(&o.parallel, "parallel", 0, "worker count (0 = GOMAXPROCS); results are identical at any value")
	fs.BoolVar(&o.shrink, "shrink", false, "on failure, minimise the world and print a repro command")
	fs.BoolVar(&o.fork, "fork", false, "fork-equivalence mode: snapshot each world mid-run, replay it, and require identical timelines")
	specArg := fs.String("spec", "", "run this scenario spec (inline JSON or a file) instead of generating the world from the seed")
	fs.BoolVar(&o.verbose, "v", false, "print one line per world")
	fs.Var(&o.knobs, "p", "set a simtest-only knob: jammer=BOOL or breakWidening=FACTOR (repeatable)")
	if err := fs.Parse(argv); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		err := fmt.Errorf("simtest: unexpected arguments: %v", fs.Args())
		fmt.Fprintln(stderr, err)
		return o, err
	}
	var probe simtest.Params
	for _, kv := range o.knobs {
		if err := setKnob(&probe, kv); err != nil {
			fmt.Fprintln(stderr, err)
			return o, err
		}
	}
	if *specArg != "" {
		s, err := loadSpec(*specArg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return o, err
		}
		o.spec = &s
	}
	return o, nil
}

// loadSpec decodes and validates -spec: inline JSON when it starts with
// "{", otherwise the name of a spec file.
func loadSpec(arg string) (scenario.Spec, error) {
	raw := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
		var err error
		if raw, err = os.ReadFile(arg); err != nil {
			return scenario.Spec{}, fmt.Errorf("simtest: -spec: %w", err)
		}
	}
	s, err := scenario.DecodeSpec(raw)
	if err != nil {
		return s, err
	}
	return s, scenario.Validate(s, 1, scenario.DefaultLimits)
}

// world is seed's world under the command line.
func (o options) world(seed uint64) simtest.Params {
	p := simtest.Generate(seed)
	o.apply(&p)
	return p
}

// apply replaces a generated world with the -spec, if any, and sets the
// -p knobs.
func (o options) apply(p *simtest.Params) {
	if o.spec != nil {
		*p = simtest.Params{Spec: *o.spec}
	}
	for _, kv := range o.knobs {
		_ = setKnob(p, kv) // checked by parse
	}
}

// setKnob applies one -p key=value override.
func setKnob(p *simtest.Params, kv string) error {
	key, value, ok := strings.Cut(kv, "=")
	if !ok {
		return fmt.Errorf("simtest: -p wants key=value, got %q", kv)
	}
	var err error
	switch key {
	case "jammer":
		p.Jammer, err = strconv.ParseBool(value)
	case "breakWidening":
		p.BreakWidening, err = strconv.ParseFloat(value, 64)
	default:
		return fmt.Errorf("simtest: unknown knob %q (known: breakWidening, jammer; set the world with -spec)", key)
	}
	if err != nil {
		return fmt.Errorf("simtest: bad value %q for %s: %v", value, key, err)
	}
	return nil
}

func run(argv []string, stdout, stderr io.Writer) int {
	o, err := parse(argv, stderr)
	if err != nil {
		return 2
	}
	if o.seed >= 0 {
		return runOne(o, uint64(o.seed), stdout, stderr)
	}
	return runSwarm(o, stdout, stderr)
}

// runOne reruns a single world (optionally shrinking a failure).
func runOne(o options, seed uint64, stdout, stderr io.Writer) int {
	p := o.world(seed)
	runWorld, shrinkWorld := simtest.RunWorld, simtest.Shrink
	if o.fork {
		runWorld, shrinkWorld = simtest.RunWorldFork, simtest.ShrinkFork
	}
	res, err := runWorld(seed, p)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	printWorld(stdout, res)
	if !res.Failed() {
		if o.fork {
			fmt.Fprintf(stdout, "seed %d: all invariants hold, fork replay identical\n", seed)
		} else {
			fmt.Fprintf(stdout, "seed %d: all invariants hold\n", seed)
		}
		return 0
	}
	for _, v := range res.Violations {
		fmt.Fprintf(stdout, "  %v\n", v)
	}
	if res.Truncated > 0 {
		fmt.Fprintf(stdout, "  ... and %d more\n", res.Truncated)
	}
	if o.shrink {
		s, err := shrinkWorld(seed, p)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "shrunk in %d runs to %v\nrepro: %s\n", s.Runs, s.Minimal, s.ReproCommand())
	}
	return 1
}

// runSwarm runs the randomized swarm and reports failures.
func runSwarm(o options, stdout, stderr io.Writer) int {
	sum, err := simtest.Swarm(simtest.SwarmConfig{
		SeedBase: o.seedBase,
		Worlds:   o.worlds,
		Parallel: o.parallel,
		Fork:     o.fork,
		Mutate:   o.apply,
		OnResult: func(r simtest.Result) {
			if o.verbose {
				printWorld(stdout, r)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "swarm: %d worlds over seeds [%d, %d), %d connected, goals %v\n",
		sum.Worlds, o.seedBase, o.seedBase+uint64(o.worlds), sum.Connected, goalLine(sum.ByGoal))
	for _, e := range sum.Errors {
		fmt.Fprintf(stdout, "ERROR %v\n", e)
	}
	for _, f := range sum.Failures {
		fmt.Fprintf(stdout, "FAIL seed %d (%v): %d violation(s), first: %v\n",
			f.Seed, f.Params, len(f.Violations)+f.Truncated, f.Violations[0])
		if o.shrink {
			shrinkWorld := simtest.Shrink
			if o.fork {
				shrinkWorld = simtest.ShrinkFork
			}
			s, err := shrinkWorld(f.Seed, f.Params)
			if err != nil {
				fmt.Fprintf(stderr, "shrink seed %d: %v\n", f.Seed, err)
				continue
			}
			fmt.Fprintf(stdout, "  shrunk in %d runs: %s\n", s.Runs, s.ReproCommand())
		} else {
			fmt.Fprintf(stdout, "  repro: %s -shrink\n", simtest.Repro(f.Seed, f.Params, o.fork))
		}
	}
	if sum.Failed() {
		return 1
	}
	fmt.Fprintln(stdout, "all invariants hold")
	return 0
}

// printWorld renders a one-line world summary.
func printWorld(w io.Writer, r simtest.Result) {
	status := "ok"
	if r.Failed() {
		status = fmt.Sprintf("FAIL(%d)", len(r.Violations)+r.Truncated)
	}
	fmt.Fprintf(w, "seed %d: %s connected=%t windows=%d injectTx=%d [%v]\n",
		r.Seed, status, r.Connected, r.Windows, r.InjectTx, r.Params)
}

// goalLine renders goal counts deterministically.
func goalLine(m map[string]int) string {
	var parts []string
	for _, g := range simtest.Goals() {
		if n := m[g]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", g, n))
		}
	}
	return strings.Join(parts, " ")
}
