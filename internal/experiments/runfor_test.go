package experiments

import (
	"context"
	"testing"

	"injectable/internal/sim"
)

// countingCtx counts Err calls so the tests can pin down exactly how many
// cancellation checks a runFor span performs.
type countingCtx struct {
	context.Context
	calls int
}

func (c *countingCtx) Err() error {
	c.calls++
	return c.Context.Err()
}

// lateCancelCtx reports cancellation only from its nth Err call onward —
// a cancel racing the simulation mid-span.
type lateCancelCtx struct {
	context.Context
	calls    int
	cancelAt int
}

func (c *lateCancelCtx) Err() error {
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

const runForSlice = 250 * sim.Millisecond

func TestRunForExactSliceChecksContextOnce(t *testing.T) {
	tw, _ := buildTrialWorld(shortCfg().withDefaults(), Instrumentation{})
	ctx := &countingCtx{Context: context.Background()}
	start := tw.w.Now()
	if err := runFor(tw.w, runForSlice, ctx); err != nil {
		t.Fatal(err)
	}
	if got := sim.Duration(tw.w.Now() - start); got != runForSlice {
		t.Fatalf("advanced %v, want %v", got, runForSlice)
	}
	// d == slice is one slice, hence one check. The historical bug was a
	// second Err() consultation after the span completed, which failed
	// finished simulations whose caller canceled during the last slice.
	if ctx.calls != 1 {
		t.Fatalf("Err() called %d times for a one-slice span, want 1", ctx.calls)
	}
}

func TestRunForSlicePlusOneChecksContextTwice(t *testing.T) {
	tw, _ := buildTrialWorld(shortCfg().withDefaults(), Instrumentation{})
	ctx := &countingCtx{Context: context.Background()}
	d := runForSlice + 1 // one full slice plus a 1ns remainder
	start := tw.w.Now()
	if err := runFor(tw.w, d, ctx); err != nil {
		t.Fatal(err)
	}
	if got := sim.Duration(tw.w.Now() - start); got != d {
		t.Fatalf("advanced %v, want %v", got, d)
	}
	if ctx.calls != 2 {
		t.Fatalf("Err() called %d times for a two-slice span, want 2", ctx.calls)
	}
}

func TestRunForCancelDuringFinalSliceStillSucceeds(t *testing.T) {
	tw, _ := buildTrialWorld(shortCfg().withDefaults(), Instrumentation{})
	// Cancellation becomes visible at the second check — after the only
	// slice of a d == slice span has already been simulated to completion.
	ctx := &lateCancelCtx{Context: context.Background(), cancelAt: 2}
	if err := runFor(tw.w, runForSlice, ctx); err != nil {
		t.Fatalf("completed span failed with %v", err)
	}
}

func TestRunForCancelBeforeSecondSliceStopsEarly(t *testing.T) {
	tw, _ := buildTrialWorld(shortCfg().withDefaults(), Instrumentation{})
	ctx := &lateCancelCtx{Context: context.Background(), cancelAt: 2}
	start := tw.w.Now()
	err := runFor(tw.w, runForSlice+1, ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := sim.Duration(tw.w.Now() - start); got != runForSlice {
		t.Fatalf("advanced %v before stopping, want exactly one slice (%v)", got, runForSlice)
	}
}

func TestRunForCanceledUpfrontAdvancesNothing(t *testing.T) {
	tw, _ := buildTrialWorld(shortCfg().withDefaults(), Instrumentation{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := tw.w.Now()
	if err := runFor(tw.w, runForSlice, ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tw.w.Now() != start {
		t.Fatal("canceled span advanced the world")
	}
}

func TestRunForNilContextRunsWhole(t *testing.T) {
	tw, _ := buildTrialWorld(shortCfg().withDefaults(), Instrumentation{})
	start := tw.w.Now()
	d := 3*runForSlice + 7
	if err := runFor(tw.w, d, nil); err != nil {
		t.Fatal(err)
	}
	if got := sim.Duration(tw.w.Now() - start); got != d {
		t.Fatalf("advanced %v, want %v", got, d)
	}
}
