package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"injectable/internal/experiments"
	"injectable/internal/scenario"
)

// swarmSeedBase anchors the CI swarm; the full run covers
// [swarmSeedBase, swarmSeedBase+500).
const swarmSeedBase = 42_000

func swarmWorlds(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 50
	}
	return 500
}

// TestSwarmInvariantsHold is the tentpole: every randomized world must pass
// every cross-layer invariant, and the full swarm must reach the DSL's
// world space — every goal, crowded cells and walls.
func TestSwarmInvariantsHold(t *testing.T) {
	worlds := swarmWorlds(t)
	var crowded, walled int
	sum, err := Swarm(SwarmConfig{SeedBase: swarmSeedBase, Worlds: worlds, OnResult: func(r Result) {
		if len(r.Params.Spec.Devices) >= 4 { // victim, phone and ≥2 bystanders
			crowded++
		}
		if len(r.Params.Spec.Walls) > 0 {
			walled++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sum.Errors {
		t.Errorf("world error: %v", e)
	}
	for _, f := range sum.Failures {
		t.Errorf("seed %d (%v): %d violations, first: %v\nrepro: %s",
			f.Seed, f.Params, len(f.Violations)+f.Truncated, f.Violations[0], Repro(f.Seed, f.Params, false))
	}
	// The swarm must actually exercise the stack, not vacuously pass.
	if sum.Connected < worlds/2 {
		t.Fatalf("only %d/%d worlds connected — generator ranges are off", sum.Connected, worlds)
	}
	if len(sum.ByGoal) < 3 {
		t.Fatalf("goal coverage too thin: %v", sum.ByGoal)
	}
	if !testing.Short() {
		for _, g := range Goals() {
			if sum.ByGoal[g] == 0 {
				t.Errorf("goal %q never drawn: %v", g, sum.ByGoal)
			}
		}
		if crowded == 0 || walled == 0 {
			t.Errorf("%d worlds with ≥2 bystanders, %d with walls; want both > 0", crowded, walled)
		}
	}
	t.Logf("%d worlds, %d connected, %d crowded, %d walled, goals %v",
		worlds, sum.Connected, crowded, walled, sum.ByGoal)
}

// TestSwarmDeterministicAcrossWorkers reruns the same seed range at
// several worker counts and requires byte-identical world fingerprints.
func TestSwarmDeterministicAcrossWorkers(t *testing.T) {
	worlds := 24
	if testing.Short() {
		worlds = 8
	}
	run := func(workers int) []string {
		var fps []string
		_, err := Swarm(SwarmConfig{
			SeedBase: swarmSeedBase,
			Worlds:   worlds,
			Parallel: workers,
			OnResult: func(r Result) { fps = append(fps, r.Fingerprint()) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(fps) != worlds {
			t.Fatalf("workers=%d delivered %d/%d results", workers, len(fps), worlds)
		}
		return fps
	}
	want := run(1)
	for _, workers := range []int{3, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: world %d diverged from serial run:\nserial: %s\n%d-way: %s",
					workers, i, want[i], workers, got[i])
			}
		}
	}
}

// shortWorld is the DSL's default world — the paper's triangle with a
// lightbulb victim — under goal, run for 8 simulated seconds.
func shortWorld(goal string) Params {
	return Params{Spec: scenario.Spec{
		Version:  scenario.Version,
		Attacker: &scenario.Attacker{Goal: goal},
		Run:      &scenario.Run{SimSeconds: 8},
	}}
}

// TestBrokenWideningCaught is the engine's self-test: a slave whose
// widening is silently tightened below eq. 4/5 must be flagged.
func TestBrokenWideningCaught(t *testing.T) {
	p := shortWorld(experiments.GoalNone)
	p.BreakWidening = 0.5
	r, err := RunWorld(7, p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Failed() {
		t.Fatal("tightened widening went undetected")
	}
	found := false
	for _, v := range r.Violations {
		if v.Invariant == "widening-eq4" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("expected a widening-eq4 violation, got: %v", r.Violations)
	}
}

// settings lists p's non-default settings as "path=value": every leaf of
// the canonical spec except its version, in the DSL's field-path syntax
// ("conn.interval", "devices[1].pos.x"), then the set knobs.
func settings(p Params) []string {
	var tree map[string]any
	if err := json.Unmarshal([]byte(p.canonical()), &tree); err != nil {
		return []string{err.Error()}
	}
	delete(tree, "version")
	var out []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(v))
			for k := range v {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(path+"."+k, v[k])
			}
		case []any:
			for i, x := range v {
				walk(fmt.Sprintf("%s[%d]", path, i), x)
			}
		default:
			raw, _ := json.Marshal(v)
			out = append(out, strings.TrimPrefix(path, ".")+"="+string(raw))
		}
	}
	walk("", tree)
	return append(out, p.knobs()...)
}

// TestBrokenWideningShrinksToMinimalRepro plants the widening fault in a
// messy generated world and requires the shrinker to isolate it to a ≤3
// setting repro with a runnable command line.
func TestBrokenWideningShrinksToMinimalRepro(t *testing.T) {
	const seed = 99
	p := Generate(seed) // a fully random world...
	p.BreakWidening = 0.5
	p.Spec.Attacker.Goal = experiments.GoalNone // ...kept cheap to rerun while shrinking

	s, err := Shrink(seed, p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Final.Failed() {
		t.Fatal("shrunk world no longer fails")
	}
	settings := settings(s.Minimal)
	if len(settings) > 3 {
		t.Fatalf("minimal repro has %d settings, want ≤3: %v", len(settings), settings)
	}
	hasBreak := false
	for _, d := range settings {
		if strings.HasPrefix(d, "breakWidening=") {
			hasBreak = true
		}
	}
	if !hasBreak {
		t.Fatalf("shrinker dropped the causative setting: %v", settings)
	}
	repro := s.ReproCommand()
	if !strings.Contains(repro, "-seed 99 -spec '{") || !strings.Contains(repro, "-p breakWidening=0.5") {
		t.Fatalf("repro command incomplete: %s", repro)
	}
	t.Logf("shrunk in %d runs to: %s", s.Runs, repro)
}

// TestShrinkPassingWorld: shrinking a healthy world returns it unchanged
// and reports the passing run.
func TestShrinkPassingWorld(t *testing.T) {
	p := shortWorld(experiments.GoalNone)
	s, err := Shrink(3, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Final.Failed() {
		t.Fatalf("default world fails: %v", s.Final.Violations)
	}
	if s.Runs != 1 || !reflect.DeepEqual(s.Minimal, p) {
		t.Fatalf("passing world was mutated: runs=%d world=%v", s.Runs, s.Minimal)
	}
}

// TestGenerateDeterministic: the world is a pure function of the seed,
// and a valid spec.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %v != %v", seed, a, b)
		}
		if err := scenario.Validate(a.Spec, 1, scenario.DefaultLimits); err != nil {
			t.Fatalf("seed %d generated an invalid spec: %v", seed, err)
		}
	}
	if reflect.DeepEqual(Generate(1), Generate(2)) {
		t.Fatal("distinct seeds generated identical worlds")
	}
}

// TestGeneratedSpecsRoundTrip: every generated spec is valid, and its
// canonical encoding — what the repro command carries — decodes back to
// the same bytes.
func TestGeneratedSpecsRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		p := Generate(seed)
		if err := scenario.Validate(p.Spec, 1, scenario.DefaultLimits); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		enc, err := scenario.EncodeCanonical(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := scenario.DecodeSpec(enc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, err := scenario.EncodeCanonical(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("seed %d: canonical spec changed on round trip:\n%s\n%s", seed, enc, again)
		}
	}
}

// TestCSAReferenceAgainstStack cross-checks the naive reference selectors
// against the production csa package on random maps (a meta-test: if these
// ever diverge, the csa-channel invariant is checking the wrong thing).
func TestCSAReferenceAgainstStack(t *testing.T) {
	// Covered from the other side by the swarm (every window compares the
	// live selector with the reference); here just pin a few known values.
	if ch := refCSA1Channel(0, 7, 1<<37-1); ch != 7 {
		t.Fatalf("CSA#1 event 0 hop 7 = %d, want 7", ch)
	}
	if ch := refCSA1Channel(1, 7, 1<<37-1); ch != 14 {
		t.Fatalf("CSA#1 event 1 hop 7 = %d, want 14", ch)
	}
	// permute bit-reverses within each byte, keeping the bytes in place.
	if m := refPermute(0x0102); m != 0x8040 {
		t.Fatalf("permute(0x0102) = %#x, want 0x8040", m)
	}
}
