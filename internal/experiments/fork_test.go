package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"injectable/internal/obs"
)

// shortCfg keeps fork unit tests fast: few attempts, small budget.
func shortCfg() TrialConfig {
	return TrialConfig{Interval: 36, MaxAttempts: 40}
}

func TestRunForkMatchesWarmFresh(t *testing.T) {
	const base = 5000
	warmSeed := WarmTrialSeed(base)
	wt, err := NewWarmTrial(shortCfg(), warmSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		trialSeed := uint64(base + i)

		forkSink := obs.NewHub()
		forked, err := wt.RunFork(trialSeed, forkSink, nil)
		if err != nil {
			t.Fatalf("trial %d: fork: %v", i, err)
		}

		freshCfg := shortCfg()
		freshSink := obs.NewHub()
		freshCfg.Obs = freshSink
		fresh, err := RunTrialWarmFresh(freshCfg, warmSeed, trialSeed)
		if err != nil {
			t.Fatalf("trial %d: warm-fresh: %v", i, err)
		}

		if forked != fresh {
			t.Fatalf("trial %d: fork=%+v fresh=%+v", i, forked, fresh)
		}
		forkObs, _ := json.Marshal(forkSink.Snapshot())
		freshObs, _ := json.Marshal(freshSink.Snapshot())
		if string(forkObs) != string(freshObs) {
			t.Fatalf("trial %d: obs snapshots diverge:\nfork =%s\nfresh=%s", i, forkObs, freshObs)
		}
		if !reflect.DeepEqual(forkSink.Led().Records(), freshSink.Led().Records()) {
			t.Fatalf("trial %d: forensics ledgers diverge", i)
		}
	}
}

func TestRunForkIsReplayable(t *testing.T) {
	wt, err := NewWarmTrial(shortCfg(), WarmTrialSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	a, err := wt.RunFork(123, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An interleaved different-seed trial must not perturb the replay.
	if _, err := wt.RunFork(456, nil, nil); err != nil {
		t.Fatal(err)
	}
	b, err := wt.RunFork(123, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed forks diverge: %+v vs %+v", a, b)
	}
}

func TestRunCounterfactual(t *testing.T) {
	wt, err := NewWarmTrial(shortCfg(), WarmTrialSeed(300))
	if err != nil {
		t.Fatal(err)
	}
	out, err := wt.RunCounterfactual(301, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.BaselineEffect {
		t.Fatal("bulb changed state with no attacker traffic")
	}
	if out.Injected.EffectObserved && !out.Causal {
		t.Fatal("observed effect not attributed to the injection")
	}
}

// TestWarmTrialSeedPinned pins the warm-world seed derivation on fixed
// bases: every forked campaign's warm worlds are built from it.
func TestWarmTrialSeedPinned(t *testing.T) {
	for _, p := range []struct{ base, want uint64 }{
		{31000, 0x8f5abbaf3149dcd7},
		{1000, 0x4dd73496a2303d11},
	} {
		if got := WarmTrialSeed(p.base); got != p.want {
			t.Errorf("WarmTrialSeed(%d) = %#x, want %#x", p.base, got, p.want)
		}
	}
}
