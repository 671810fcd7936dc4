package simtest

import (
	"fmt"
	"strings"

	"injectable/internal/sim"
)

// The fork-equivalence check turns World.Snapshot/Fork into an invariant:
// a world snapshotted at an arbitrary mid-run instant, run to its horizon,
// rolled back and replayed must reproduce the continued timeline exactly —
// same fingerprint, byte for byte. Any state the snapshot engine fails to
// capture (a closure variable, a stray global, an unregistered root)
// surfaces as a divergence between the two timelines, and the swarm's
// shrinker then minimises the world that exposed it.

// ForkReport is the outcome of one fork-equivalence check.
type ForkReport struct {
	Seed   uint64
	Params Params
	// SnapAt is the absolute simulation time the snapshot was taken —
	// drawn from the seed's dedicated RNG stream, so each seed probes a
	// different instant of its run window.
	SnapAt sim.Time
	// Match: the continued and forked timelines produced identical
	// fingerprints.
	Match bool
	// Continued and Forked are the two timelines' fingerprints.
	Continued string
	Forked    string
	// Result is the forked timeline's result; its invariants are checked
	// like any RunWorld result.
	Result Result
}

// Failed reports a divergence or an invariant breach in either timeline
// (the timelines are fingerprint-equal on match, so checking one suffices).
func (r ForkReport) Failed() bool { return !r.Match || r.Result.Failed() }

// ForkCheck builds the world, brings the connection up, launches the
// attack, then snapshots at a seed-derived instant of the run window, runs
// to the horizon, forks back and replays the same span.
func ForkCheck(seed uint64, p Params) (ForkReport, error) {
	lw, err := buildWorld(seed, p)
	if err != nil {
		return ForkReport{}, err
	}
	if err := lw.start(); err != nil {
		return ForkReport{}, err
	}

	w, total := lw.wd.Host(), lw.wd.Budget()
	pre := sim.Duration(sim.NewRNG(seed).Child("simtest-fork").Intn(max(1, int(total/sim.Millisecond)))) * sim.Millisecond
	w.RunFor(pre)
	snap := w.Snapshot()
	rep := ForkReport{Seed: seed, Params: p, SnapAt: w.Now()}

	w.RunFor(total - pre)
	rep.Continued = lw.collect().Fingerprint()

	w.Fork(snap)
	w.RunFor(total - pre)
	rep.Result = lw.collect()
	rep.Forked = rep.Result.Fingerprint()
	rep.Match = rep.Continued == rep.Forked
	return rep, nil
}

// RunWorldFork runs one world through ForkCheck and folds any divergence
// into the Result as a synthetic "fork-divergence" violation, so the
// swarm and shrink machinery treat snapshot bugs exactly like invariant
// breaches.
func RunWorldFork(seed uint64, p Params) (Result, error) {
	rep, err := ForkCheck(seed, p)
	if err != nil {
		return Result{}, err
	}
	res := rep.Result
	if !rep.Match {
		res.Violations = append(res.Violations, Violation{
			Invariant: "fork-divergence",
			At:        rep.SnapAt,
			Detail:    forkDiffDetail(rep.Continued, rep.Forked),
		})
	}
	return res, nil
}

// forkDiffDetail points at the first fingerprint line where the continued
// and forked timelines diverge.
func forkDiffDetail(continued, forked string) string {
	cl, fl := strings.Split(continued, "\n"), strings.Split(forked, "\n")
	for i := 0; i < len(cl) && i < len(fl); i++ {
		if cl[i] != fl[i] {
			return fmt.Sprintf("fingerprint line %d: continued %q, forked %q", i+1, cl[i], fl[i])
		}
	}
	return fmt.Sprintf("fingerprint length: continued %d lines, forked %d lines", len(cl), len(fl))
}
