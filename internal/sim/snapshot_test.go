package sim

import (
	"reflect"
	"slices"
	"testing"
)

// drainLog runs the scheduler to completion and returns the order and
// times of executed events via the shared log slice.
func TestSchedulerSnapshotRestoreReplaysIdentically(t *testing.T) {
	s := NewScheduler()
	var log []string
	mark := func(name string) func() { return func() { log = append(log, name) } }
	s.At(10, "a", mark("a"))
	s.At(20, "b", mark("b"))
	s.At(20, "c", mark("c")) // FIFO tie with b
	s.Step()                 // run "a" so the free list is non-empty

	snap := s.Snapshot()
	ran0, now0, pending0 := s.Processed(), s.Now(), s.Pending()

	s.After(5, "d", mark("d"))
	s.Run()
	first := append([]string(nil), log...)

	s.Restore(snap)
	if s.Processed() != ran0 || s.Now() != now0 || s.Pending() != pending0 {
		t.Fatalf("restore: ran=%d now=%v pending=%d, want %d %v %d",
			s.Processed(), s.Now(), s.Pending(), ran0, now0, pending0)
	}
	log = log[:1] // keep "a", replay the rest
	s.After(5, "d", mark("d"))
	s.Run()
	if !reflect.DeepEqual(log, first) {
		t.Fatalf("replay order %v != first run %v", log, first)
	}
}

func TestSchedulerSnapshotDropsPostSnapshotEvents(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(10, "pre", func() { fired++ })
	snap := s.Snapshot()
	s.At(5, "post", func() { fired += 100 })
	s.Restore(snap)
	s.Run()
	if fired != 1 {
		t.Fatalf("fired=%d, want 1 (post-snapshot event must be dropped)", fired)
	}
}

func TestSchedulerSnapshotRevivesEventRefs(t *testing.T) {
	s := NewScheduler()
	ref := s.At(10, "ev", func() {})
	snap := s.Snapshot()
	s.Run()
	if ref.Pending() {
		t.Fatal("ref still pending after run")
	}
	s.Restore(snap)
	if !ref.Pending() || ref.At() != 10 || ref.Label() != "ev" {
		t.Fatalf("restored ref: pending=%t at=%v label=%q", ref.Pending(), ref.At(), ref.Label())
	}
	// Cancelling the revived ref must suppress the replayed event.
	s.Cancel(ref)
	s.Run()
}

func TestSchedulerRestoreForeignSnapshotPanics(t *testing.T) {
	a, b := NewScheduler(), NewScheduler()
	snap := a.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic restoring a foreign snapshot")
		}
	}()
	b.Restore(snap)
}

func TestRNGSnapshotRestoreReplaysStream(t *testing.T) {
	g := NewRNG(42)
	g.Float64() // advance off the seed state
	var buf [16]byte
	g.Bytes(buf[:]) // engage Read state (readVal/readPos)

	snap := g.Snapshot()
	draw := func() [6]uint64 {
		var out [6]uint64
		out[0] = g.Uint64()
		out[1] = uint64(g.Intn(1000))
		out[2] = uint64(int64(g.NormFloat64() * 1e6))
		out[3] = uint64(g.Duration(Second))
		var b [3]byte
		g.Bytes(b[:])
		out[4] = uint64(b[0])<<16 | uint64(b[1])<<8 | uint64(b[2])
		out[5] = uint64(int64(g.Float64() * 1e9))
		return out
	}
	first := draw()
	g.Restore(snap)
	if second := draw(); second != first {
		t.Fatalf("replayed draws %v != first draws %v", second, first)
	}
}

func TestRNGReseedMatchesFreshStream(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 100; i++ {
		g.Uint64()
	}
	var buf [5]byte
	g.Bytes(buf[:]) // leave partial Read state that Reseed must clear
	g.Reseed(12345)

	fresh := NewRNG(12345)
	if g.Seed() != fresh.Seed() {
		t.Fatalf("seed=%d, want %d", g.Seed(), fresh.Seed())
	}
	for i := 0; i < 50; i++ {
		if a, b := g.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: reseeded %d != fresh %d", i, a, b)
		}
	}
	g.Bytes(buf[:])
	var want [5]byte
	fresh.Bytes(want[:])
	if buf != want {
		t.Fatalf("reseeded Bytes %v != fresh %v", buf, want)
	}
}

// drawEach takes one draw from every draw method in turn, twice over, so
// whichever method draws first is the one that seeds a lazily reseeded
// stream.
func drawEach(g *RNG, first int) []uint64 {
	methods := []func() uint64{
		func() uint64 { return uint64(int64(g.Float64() * 1e15)) },
		func() uint64 { return uint64(int64(g.NormFloat64() * 1e12)) },
		func() uint64 { return uint64(g.Intn(1 << 30)) },
		func() uint64 { return uint64(g.Uint32()) },
		func() uint64 { return g.Uint64() },
		func() uint64 {
			var b [5]byte
			g.Bytes(b[:])
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 | uint64(b[4])<<32
		},
		func() uint64 { return uint64(g.Duration(Second)) },
	}
	var out []uint64
	for i := 0; i < 2*len(methods); i++ {
		out = append(out, methods[(first+i)%len(methods)]())
	}
	return out
}

// TestRNGLazyReseedMatchesNewRNG checks that a reseeded stream, which seeds
// its generator only on the first draw, draws exactly what NewRNG(seed)
// does whichever method draws first — also when the stream was
// snapshotted before that first draw and restored after it.
func TestRNGLazyReseedMatchesNewRNG(t *testing.T) {
	const seed = 0xfeedface
	for first := 0; first < 7; first++ {
		want := drawEach(NewRNG(seed), first)

		g := NewRNG(3)
		g.Uint64()
		var partial [3]byte
		g.Bytes(partial[:]) // leave Read state the reseed must clear
		g.Reseed(seed)
		if got := drawEach(g, first); !slices.Equal(got, want) {
			t.Fatalf("method %d first: reseeded draws %v, want %v", first, got, want)
		}

		g.Rekey(1)
		g.Reseed(seed)
		snap := g.Snapshot() // taken while the reseed is still pending
		if got := drawEach(g, first); !slices.Equal(got, want) {
			t.Fatalf("method %d first: draws after a stale snapshot %v, want %v", first, got, want)
		}
		g.Restore(snap)
		if got := drawEach(g, first); !slices.Equal(got, want) {
			t.Fatalf("method %d first: draws after restoring a stale snapshot %v, want %v", first, got, want)
		}
	}
}

func TestRNGRekeyIsOrderIndependent(t *testing.T) {
	a1, a2 := NewRNG(1), NewRNG(2)
	b1, b2 := NewRNG(1), NewRNG(2)
	a1.Rekey(99)
	a2.Rekey(99)
	b2.Rekey(99) // opposite visit order
	b1.Rekey(99)
	if a1.Seed() != b1.Seed() || a2.Seed() != b2.Seed() {
		t.Fatal("rekey result depends on visit order")
	}
	if a1.Seed() == a2.Seed() {
		t.Fatal("distinct streams rekeyed to the same seed")
	}
	if a1.Uint64() != b1.Uint64() {
		t.Fatal("rekeyed streams diverge")
	}
}

func TestClockStateIsCapturedWithScheduler(t *testing.T) {
	s := NewScheduler()
	rng := NewRNG(3)
	c := NewClock(s, rng.Child("clock"), ClockConfig{RatedPPM: 50, JitterStdDev: Microsecond})

	// Capture scheduler + clock together, as a world snapshot would.
	cap := CaptureRoots(s, c)
	fired := 0
	c.AfterLocal(Millisecond, "tick", func() { fired++ })
	s.Run()
	t1 := s.Now()

	cap.Restore()
	c.AfterLocal(Millisecond, "tick", func() { fired++ })
	s.Run()
	if s.Now() != t1 {
		t.Fatalf("replayed wakeup at %v, want %v (jitter draw must replay)", s.Now(), t1)
	}
	if fired != 2 {
		t.Fatalf("fired=%d, want 2", fired)
	}
}

// TestSchedulerSnapshotSeesAtArgArgument checks that the snapshot walk
// follows a queued event's argument: state reachable only through it is
// rolled back by Restore, which a closure's captures never are.
func TestSchedulerSnapshotSeesAtArgArgument(t *testing.T) {
	type counter struct{ v int }
	s := NewScheduler()
	c := &counter{v: 1}
	var seen []int
	fn := func(arg any, n uint64) { seen = append(seen, arg.(*counter).v+int(n)) }
	s.AtArg(10, "arg", fn, c, 100)
	snap := s.Snapshot()
	c.v = 50
	s.Restore(snap)
	s.Run()
	if !slices.Equal(seen, []int{101}) {
		t.Fatalf("argument state after restore = %v, want [101]", seen)
	}
}
