// Package simtest is the repository's correctness backstop: a deterministic
// randomized-world generator, a cross-layer invariant engine checking the
// paper's quantitative laws (eqs. 1–7) on every event, and a shrinker that
// reduces a failing world to its fewest non-default settings with a
// one-line repro.
//
// A world is a scenario.Spec — the same declarative spec the daemon's
// POST /v1/scenario accepts — plus two knobs the DSL deliberately cannot
// say: a wideband jammer and a planted widening fault. Every world is
// validated and built by the one trial-world builder (scenario.BuildWorld
// → experiments.BuildWorld), so the swarm covers every world the DSL can
// express: any victim type, bystanders of any type, walls, and all six
// attacker goals. Each world is derived from a single sim.RNG seed, so a
// violation report is reproducible from its seed alone:
//
//	go run ./cmd/simtest -seed N -shrink
package simtest

import (
	"fmt"
	"strconv"
	"strings"

	"injectable/internal/experiments"
	"injectable/internal/scenario"
	"injectable/internal/sim"
)

// Params is one generated world: the scenario spec plus the simtest-only
// knobs. The zero value of every spec field is its documented DSL
// default, which is what the shrinker minimises toward.
type Params struct {
	Spec scenario.Spec
	// Jammer adds periodic wideband noise bursts on the data channels.
	Jammer bool
	// BreakWidening is a fault-injection knob for self-testing the
	// invariant engine: the victim's widening is silently scaled by this
	// factor WITHOUT telling the checker — exactly the "widening bound
	// tightened below eq. 4/5" regression the engine must catch. 0 = off.
	BreakWidening float64
}

// Goals lists the attacker goals the generator draws from.
func Goals() []string {
	return []string{
		experiments.GoalNone, experiments.GoalInject, experiments.GoalHijackSlave,
		experiments.GoalHijackMaster, experiments.GoalMITM, experiments.GoalUpdate,
	}
}

// Goal is the world's attacker goal ("inject" when the spec leaves it
// at its default).
func (p Params) Goal() string {
	if p.Spec.Attacker == nil || p.Spec.Attacker.Goal == "" {
		return experiments.GoalInject
	}
	return p.Spec.Attacker.Goal
}

// Generate draws a world from the seed's dedicated RNG stream. Equal seeds
// yield equal worlds; the stream is independent of the world's own
// simulation randomness (sim.RNG child-stream isolation). The draws are
// append-only: a new dimension draws after every existing one, so each
// seed keeps the values it drew before. Every spec sub-object is
// allocated, so callers can retarget a field without nil checks.
func Generate(seed uint64) Params {
	rng := sim.NewRNG(seed).Child("simtest-gen")
	targets := experiments.ScenarioTargets()
	target := targets[rng.Intn(len(targets))]
	goal := experiments.GoalNone
	switch r := rng.Float64(); {
	case r < 0.30:
	case r < 0.72:
		goal = experiments.GoalInject
	case r < 0.86:
		goal = experiments.GoalHijackSlave
	default:
		goal = experiments.GoalHijackMaster
	}

	conn := &scenario.Conn{Interval: 6 + rng.Intn(45)} // 7.5 .. 62.5 ms
	if rng.Bool(0.3) {
		conn.Latency = 1 + rng.Intn(4)
	}
	conn.Hop = 5 + rng.Intn(12)
	conn.CSA2 = rng.Bool(0.25)
	if rng.Bool(0.4) {
		conn.UnusedChannels = 1 + rng.Intn(8)
	}

	// The devices keep the names "<victim type>" and "phone": a device's
	// clock stream is derived from its name.
	victim := scenario.Device{Type: target, Name: target}
	phone := scenario.Device{Type: "phone", Name: "phone"}
	victim.ClockPPM = 10 + 140*rng.Float64()
	phone.ClockPPM = 10 + 140*rng.Float64()
	victim.ClockJitterUS = 0.2 + 2.8*rng.Float64()
	phone.ClockJitterUS = 0.2 + 2.8*rng.Float64()
	phone.Pos = &scenario.Pos{X: 0.5 + 3.5*rng.Float64()}
	attacker := &scenario.Attacker{Goal: goal, Pos: &scenario.Pos{X: -(0.5 + 5.5*rng.Float64())}}

	traffic := &scenario.Traffic{}
	if !rng.Bool(0.3) {
		traffic.ActivityMS = 100 + rng.Intn(900)
	}
	bystander, jammer := rng.Bool(0.2), rng.Bool(0.1)
	defense := &scenario.Defense{IDS: rng.Bool(0.25)}
	if rng.Bool(0.15) {
		// Legitimate countermeasure worlds: the checker is told the scale,
		// so a scaled widening is NOT a violation (too small a scale may
		// break the connection, which is an outcome, not a bug).
		defense.WideningScale = 0.5 + 1.5*rng.Float64()
	}
	run := &scenario.Run{SimSeconds: float64(6 + rng.Intn(9))}

	// Dimensions added after the historical parameter space.
	switch r := rng.Float64(); {
	case goal == experiments.GoalInject && r < 0.25:
		attacker.Goal = experiments.GoalUpdate
	case goal == experiments.GoalHijackMaster && r < 0.5:
		attacker.Goal = experiments.GoalMITM
	}
	devices := []scenario.Device{victim, phone}
	var bystanders []scenario.Pos
	if bystander {
		bystanders = append(bystanders, scenario.Pos{X: 1.5, Y: 2.5})
	}
	if rng.Bool(0.25) {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			bystanders = append(bystanders, scenario.Pos{X: -4 + 8*rng.Float64(), Y: -4 + 8*rng.Float64()})
		}
	}
	for i := range bystanders {
		devices = append(devices, scenario.Device{Type: targets[rng.Intn(len(targets))], Pos: &bystanders[i]})
	}
	var walls []scenario.Wall
	if rng.Bool(0.25) {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			walls = append(walls, scenario.Wall{
				A:      scenario.Pos{X: -5 + 10*rng.Float64(), Y: -5 + 10*rng.Float64()},
				B:      scenario.Pos{X: -5 + 10*rng.Float64(), Y: -5 + 10*rng.Float64()},
				LossDB: 3 + 12*rng.Float64(),
			})
		}
	}

	return Params{Jammer: jammer, Spec: scenario.Spec{
		Version:  scenario.Version,
		Devices:  devices,
		Walls:    walls,
		Conn:     conn,
		Traffic:  traffic,
		Attacker: attacker,
		Defense:  defense,
		Run:      run,
	}}
}

// knobs renders the simtest-only knobs that are not off, as the
// "key=value" operands of cmd/simtest's -p flag.
func (p Params) knobs() []string {
	var out []string
	if p.Jammer {
		out = append(out, "jammer=true")
	}
	if p.BreakWidening != 0 {
		out = append(out, "breakWidening="+strconv.FormatFloat(p.BreakWidening, 'g', -1, 64))
	}
	return out
}

// String renders the canonical spec followed by any knobs.
func (p Params) String() string {
	return strings.Join(append([]string{p.canonical()}, p.knobs()...), " ")
}

// canonical is the spec's canonical encoding: the bytes POST
// /v1/scenario accepts for it.
func (p Params) canonical() string {
	spec, err := scenario.EncodeCanonical(p.Spec)
	if err != nil {
		return fmt.Sprintf("unencodable spec: %v", err)
	}
	return string(spec)
}

// Repro renders the one-line command that reruns seed's world p: the
// canonical spec and the knobs. fork adds the fork-equivalence flag.
func Repro(seed uint64, p Params, fork bool) string {
	// Canonical specs hold no single quote (names are [a-zA-Z0-9._/-]),
	// so single-quoting is a complete shell escape.
	cmd := fmt.Sprintf("go run ./cmd/simtest -seed %d -spec '%s'", seed, p.canonical())
	if fork {
		cmd += " -fork"
	}
	for _, kv := range p.knobs() {
		cmd += " -p " + kv
	}
	return cmd
}
