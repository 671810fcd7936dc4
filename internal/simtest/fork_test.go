package simtest

import (
	"strings"
	"testing"

	"injectable/internal/experiments"
)

// TestForkCheckScenarios forks one world of every attacker goal and
// requires the replayed timeline to match the continued one exactly.
func TestForkCheckScenarios(t *testing.T) {
	for _, goal := range Goals() {
		t.Run(goal, func(t *testing.T) {
			rep, err := ForkCheck(11, shortWorld(goal))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Match {
				t.Fatalf("fork diverged at snapshot t=%v:\ncontinued: %s\nforked:    %s",
					rep.SnapAt, rep.Continued, rep.Forked)
			}
			if rep.Result.Failed() {
				t.Fatalf("forked timeline broke invariants: %v", rep.Result.Violations)
			}
		})
	}
}

// TestForkCheckHijackMasterSeed35 pins the seed that exposed the adopted
// master connection escaping the snapshot (it was reachable only through
// scheduler closures, so a fork replayed it with a stale channel cursor
// and starved the slave).
func TestForkCheckHijackMasterSeed35(t *testing.T) {
	rep, err := ForkCheck(35, shortWorld(experiments.GoalHijackMaster))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("fork diverged:\ncontinued: %s\nforked:    %s", rep.Continued, rep.Forked)
	}
	if !rep.Result.AttackSuccess {
		t.Fatal("world stopped exercising the master hijack — pick a new pin seed")
	}
}

// TestForkSwarmGeneratedWorlds runs generated worlds (jammers, bystanders,
// walls, IDS, every goal) through the fork-equivalence swarm.
func TestForkSwarmGeneratedWorlds(t *testing.T) {
	worlds := 40
	if testing.Short() {
		worlds = 12
	}
	sum, err := Swarm(SwarmConfig{SeedBase: 1, Worlds: worlds, Fork: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sum.Errors {
		t.Errorf("world error: %v", e)
	}
	for _, f := range sum.Failures {
		t.Errorf("seed %d (%v): first violation: %v\nrepro: %s",
			f.Seed, f.Params, f.Violations[0], Repro(f.Seed, f.Params, true))
	}
	if sum.Connected < worlds/2 {
		t.Fatalf("only %d/%d worlds connected", sum.Connected, worlds)
	}
}

// TestRunWorldForkFoldsDivergenceIntoViolations checks the plumbing that
// turns a fingerprint mismatch into a shrinkable violation.
func TestRunWorldForkFoldsDivergenceIntoViolations(t *testing.T) {
	detail := forkDiffDetail("a\nwindows=3\nc", "a\nwindows=9\nc")
	if !strings.Contains(detail, "line 2") ||
		!strings.Contains(detail, "windows=3") || !strings.Contains(detail, "windows=9") {
		t.Fatalf("diff detail does not point at the divergence: %q", detail)
	}
	detail = forkDiffDetail("a\nb", "a\nb\nc")
	if !strings.Contains(detail, "length") {
		t.Fatalf("length-only divergence not reported: %q", detail)
	}
}

// TestShrinkForkReproCarriesFlag: a shrunk fork failure must print a repro
// command that reruns under the fork-equivalence runner.
func TestShrinkForkReproCarriesFlag(t *testing.T) {
	s := ShrinkResult{Seed: 35, Fork: true}
	if cmd := s.ReproCommand(); !strings.Contains(cmd, "-fork") {
		t.Fatalf("fork shrink repro lost the -fork flag: %q", cmd)
	}
	s.Fork = false
	if cmd := s.ReproCommand(); strings.Contains(cmd, "-fork") {
		t.Fatalf("plain shrink repro gained a -fork flag: %q", cmd)
	}
}
