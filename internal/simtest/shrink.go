package simtest

import (
	"encoding/json"
	"maps"
	"slices"
	"sort"

	"injectable/internal/scenario"
)

// ShrinkResult is a minimised failing world.
type ShrinkResult struct {
	Seed uint64
	// Initial is the original failing run, Final the run of the minimal
	// world (still failing, by construction).
	Initial Result
	Final   Result
	// Minimal is the smallest world found that still fails.
	Minimal Params
	// Runs counts world executions spent shrinking (including the first).
	Runs int
	// Fork marks a shrink under the fork-equivalence runner; the repro
	// command carries the -fork flag.
	Fork bool
}

// ReproCommand renders the one-line reproduction for the minimal world.
func (s ShrinkResult) ReproCommand() string { return Repro(s.Seed, s.Minimal, s.Fork) }

// Shrink greedily minimises a failing world. It leans on the DSL's rule
// that every absent field means its documented default: each step deletes
// one field of the canonical spec (a whole sub-object at once, or one
// leaf), drops one device or wall, or clears one simtest knob, and keeps
// the step if the world still fails. Steps repeat until none keeps the
// failure, so the result is 1-minimal: no single further deletion still
// fails. Steps that make the spec invalid are skipped.
//
// If the initial world does not fail, the result's Final is that passing
// run and Minimal equals the input — callers check Final.Failed().
func Shrink(seed uint64, p Params) (ShrinkResult, error) {
	return shrinkWith(RunWorld, seed, p, false)
}

// ShrinkFork is Shrink under the fork-equivalence runner: the failure
// being minimised is "this world's fork replay diverges (or breaks an
// invariant)", and the repro command carries -fork.
func ShrinkFork(seed uint64, p Params) (ShrinkResult, error) {
	return shrinkWith(RunWorldFork, seed, p, true)
}

// shrinkWith is the shrink loop over an arbitrary world runner.
func shrinkWith(run func(uint64, Params) (Result, error), seed uint64, p Params, fork bool) (ShrinkResult, error) {
	initial, err := run(seed, p)
	if err != nil {
		return ShrinkResult{}, err
	}
	out := ShrinkResult{Seed: seed, Initial: initial, Final: initial, Minimal: p, Runs: 1, Fork: fork}
	if !initial.Failed() {
		return out, nil
	}
	cur, curRes := p, initial
	for changed := true; changed; {
		changed = false
		cands, err := simpler(cur)
		if err != nil {
			return ShrinkResult{}, err
		}
		for _, cand := range cands {
			r, err := run(seed, cand)
			out.Runs++
			if err != nil || !r.Failed() {
				continue
			}
			cur, curRes, changed = cand, r, true
			break // the candidates of the smaller world differ
		}
	}
	out.Minimal, out.Final = cur, curRes
	return out, nil
}

// simpler lists p's one-step simplifications: the spec with one field of
// its canonical JSON deleted or one array element dropped, coarsest first
// within each field, then each set knob cleared.
func simpler(p Params) ([]Params, error) {
	var tree any
	if err := json.Unmarshal([]byte(p.canonical()), &tree); err != nil {
		return nil, err
	}
	var out []Params
	for _, t := range deletions(tree) {
		raw, _ := json.Marshal(t) // a decoded tree always re-encodes
		if s, err := scenario.DecodeSpec(raw); err == nil {
			out = append(out, Params{Spec: s, Jammer: p.Jammer, BreakWidening: p.BreakWidening})
		}
	}
	if p.Jammer {
		q := p
		q.Jammer = false
		out = append(out, q)
	}
	if p.BreakWidening != 0 {
		q := p
		q.BreakWidening = 0
		out = append(out, q)
	}
	return out, nil
}

// deletions returns every tree one deletion smaller than v: one object key
// or one array element removed, at any depth. Subtrees are shared, never
// mutated.
func deletions(v any) []any {
	var out []any
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := maps.Clone(v)
			delete(c, k)
			out = append(out, c)
			for _, sub := range deletions(v[k]) {
				c := maps.Clone(v)
				c[k] = sub
				out = append(out, c)
			}
		}
	case []any:
		for i := range v {
			out = append(out, slices.Delete(slices.Clone(v), i, i+1))
			for _, sub := range deletions(v[i]) {
				c := slices.Clone(v)
				c[i] = sub
				out = append(out, c)
			}
		}
	}
	return out
}
