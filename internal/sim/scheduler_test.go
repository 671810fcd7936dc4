package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*Time(Microsecond), "c", func() { got = append(got, 3) })
	s.At(10*Time(Microsecond), "a", func() { got = append(got, 1) })
	s.At(20*Time(Microsecond), "b", func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Time(Microsecond) {
		t.Errorf("Now = %v, want 30µs", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Time(Microsecond), "e", func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.After(Microsecond, "outer", func() {
		s.After(2*Microsecond, "inner", func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 1 || fired[0] != Time(3*Microsecond) {
		t.Fatalf("inner fired at %v, want 3µs", fired)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	e := s.After(Microsecond, "x", func() { ran = true })
	if !e.Pending() {
		t.Fatal("event not pending after scheduling")
	}
	s.Cancel(e)
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Cancelling again — and cancelling a zero ref — must be no-ops.
	s.Cancel(e)
	s.Cancel(EventRef{})
}

func TestSchedulerStaleRefIsInert(t *testing.T) {
	s := NewScheduler()
	e := s.After(Microsecond, "ran", func() {})
	s.Run()
	// The event ran: its ref is stale and every accessor is inert.
	if e.Pending() || e.Cancelled() {
		t.Fatal("stale ref not inert")
	}
	if e.At() != 0 || e.Label() != "" {
		t.Fatalf("stale ref leaked data: at=%v label=%q", e.At(), e.Label())
	}
	s.Cancel(e) // must not disturb later events
	ran := false
	f := s.After(Microsecond, "later", func() { ran = true })
	s.Cancel(e) // stale ref again, now that the struct is re-used
	s.Run()
	if !ran {
		t.Fatal("stale Cancel hit a recycled event")
	}
	_ = f
}

func TestSchedulerEventRefAccessors(t *testing.T) {
	s := NewScheduler()
	e := s.At(Time(5*Microsecond), "probe", func() {})
	if e.At() != Time(5*Microsecond) {
		t.Fatalf("At = %v", e.At())
	}
	if e.Label() != "probe" {
		t.Fatalf("Label = %q", e.Label())
	}
}

func TestSchedulerCancelOneOfMany(t *testing.T) {
	s := NewScheduler()
	var got []string
	a := s.At(Time(Microsecond), "a", func() { got = append(got, "a") })
	s.At(Time(2*Microsecond), "b", func() { got = append(got, "b") })
	c := s.At(Time(3*Microsecond), "c", func() { got = append(got, "c") })
	s.Cancel(a)
	s.Cancel(c)
	s.Run()
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("got %v, want [b]", got)
	}
}

func TestSchedulerRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler()
	s.After(10*Microsecond, "later", func() {})
	s.RunUntil(Time(5 * Microsecond))
	if s.Now() != Time(5*Microsecond) {
		t.Fatalf("Now = %v, want 5µs", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.RunFor(10 * Microsecond)
	if s.Pending() != 0 {
		t.Fatal("event did not run")
	}
}

func TestSchedulerHalt(t *testing.T) {
	s := NewScheduler()
	n := 0
	for i := 1; i <= 5; i++ {
		s.At(Time(i)*Time(Microsecond), "e", func() {
			n++
			if n == 2 {
				s.Halt()
			}
		})
	}
	s.Run()
	if n != 2 {
		t.Fatalf("ran %d events after halt, want 2", n)
	}
	if !s.Halted() {
		t.Fatal("not halted")
	}
}

func TestSchedulerPanicsOnPastEvent(t *testing.T) {
	s := NewScheduler()
	s.After(10*Microsecond, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic scheduling in the past")
			}
		}()
		s.At(Time(Microsecond), "past", func() {})
	})
	s.Run()
}

func TestSchedulerNegativeAfterClamped(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.After(-5*Microsecond, "neg", func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("negative-delay event dropped")
	}
}

func TestSchedulerProcessedCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.At(Time(i)*Time(Microsecond), "e", func() {})
	}
	s.Run()
	if s.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed())
	}
}

// Property: for any set of event offsets, execution order is sorted by time.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler()
		var seen []Time
		for _, o := range offsets {
			s.At(Time(o)*Time(Microsecond), "e", func() {
				seen = append(seen, s.Now())
			})
		}
		s.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(offsets)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refModel is a naive sorted-slice reference scheduler: schedule keeps the
// slice ordered by (at, seq); run pops the head. It is the executable spec
// the 4-ary heap is tested against.
type refModel struct {
	events []refEvent
	seq    uint64
	now    Time
}

type refEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
}

func (m *refModel) schedule(at Time, id int) uint64 {
	m.seq++
	e := refEvent{at: at, seq: m.seq, id: id}
	i := sort.Search(len(m.events), func(i int) bool {
		o := m.events[i]
		return o.at > e.at || (o.at == e.at && o.seq > e.seq)
	})
	m.events = append(m.events, refEvent{})
	copy(m.events[i+1:], m.events[i:])
	m.events[i] = e
	return e.seq
}

func (m *refModel) cancel(seq uint64) {
	for i := range m.events {
		if m.events[i].seq == seq {
			m.events[i].cancelled = true
		}
	}
}

func (m *refModel) run() []int {
	var order []int
	for _, e := range m.events {
		if !e.cancelled {
			m.now = e.at
			order = append(order, e.id)
		}
	}
	m.events = nil
	return order
}

// TestSchedulerMatchesReferenceModel drives the 4-ary heap scheduler and
// the sorted-slice reference through the same randomized sequence of
// schedule / cancel / re-schedule operations and requires identical
// execution order — the property that keeps RNG draw order, and therefore
// every experiment table, byte-identical across scheduler rewrites.
func TestSchedulerMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		s := NewScheduler()
		ref := &refModel{}
		var got []int
		type handle struct {
			ref EventRef
			seq uint64
		}
		var handles []handle
		n := 1 + rng.Intn(60)
		for op := 0; op < n; op++ {
			switch {
			case len(handles) > 0 && rng.Intn(4) == 0:
				// Cancel a random earlier event (possibly twice).
				h := handles[rng.Intn(len(handles))]
				s.Cancel(h.ref)
				ref.cancel(h.seq)
			default:
				id := op
				at := Time(rng.Intn(50)) * Time(Microsecond)
				ev := s.At(at, "e", func() { got = append(got, id) })
				seq := ref.schedule(at, id)
				handles = append(handles, handle{ev, seq})
				if rng.Intn(8) == 0 {
					// Immediately cancel and re-schedule at a new time:
					// the recycled struct must not resurrect the old ref.
					s.Cancel(ev)
					ref.cancel(seq)
					at2 := Time(rng.Intn(50)) * Time(Microsecond)
					ev2 := s.At(at2, "r", func() { got = append(got, -id) })
					seq2 := ref.schedule(at2, -id)
					handles = append(handles, handle{ev2, seq2})
				}
			}
		}
		s.Run()
		want := ref.run()
		if len(got) != len(want) {
			t.Fatalf("round %d: ran %d events, want %d\ngot %v\nwant %v",
				round, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: order mismatch at %d\ngot %v\nwant %v", round, i, got, want)
			}
		}
		if s.now != ref.now && len(want) > 0 {
			t.Fatalf("round %d: clock %v, want %v", round, s.now, ref.now)
		}
	}
}

// TestSchedulerFreeListReuse checks that events are recycled through the
// free list and that recycling invalidates old refs.
func TestSchedulerFreeListReuse(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 3; i++ {
		s.After(Microsecond, "warm", func() {})
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.After(Microsecond, "steady", func() {})
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state At+Step allocates %v per run, want 0", allocs)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(Milliseconds(2))
	if t0.Microseconds() != 2000 {
		t.Errorf("Microseconds = %d", t0.Microseconds())
	}
	if d := t0.Sub(Time(Microsecond)); d != Duration(1999*Microsecond) {
		t.Errorf("Sub = %v", d)
	}
	if !Time(1).Before(Time(2)) || !Time(2).After(Time(1)) {
		t.Error("Before/After broken")
	}
	if s := Time(1234567 * int64(Microsecond)).String(); s != "1.234567s" {
		t.Errorf("String = %q", s)
	}
	if s := Microseconds(150).String(); s != "150µs" {
		t.Errorf("Duration.String = %q", s)
	}
	if s := Duration(1500).String(); s != "1.500µs" {
		t.Errorf("Duration.String sub-µs = %q", s)
	}
}

// argSink is an AtArg target: handle is bound once as a method value.
type argSink struct {
	got []string
	n   []uint64
}

func (k *argSink) handle(arg any, n uint64) {
	k.got = append(k.got, arg.(*argTag).name)
	k.n = append(k.n, n)
}

type argTag struct{ name string }

func TestSchedulerAtArgOrderAndArguments(t *testing.T) {
	s := NewScheduler()
	k := &argSink{}
	fn := k.handle
	a, b := &argTag{"a"}, &argTag{"b"}
	s.AtArg(20, "b", fn, b, 2)
	s.At(10, "closure", func() { k.got = append(k.got, "closure"); k.n = append(k.n, 0) })
	s.AtArg(10, "a", fn, a, 1<<40) // FIFO tie with the closure
	cancelled := s.AtArg(15, "x", fn, a, 9)
	s.Cancel(cancelled)
	s.Run()
	if want := []string{"closure", "a", "b"}; !slices.Equal(k.got, want) {
		t.Fatalf("ran %v, want %v", k.got, want)
	}
	if want := []uint64{0, 1 << 40, 2}; !slices.Equal(k.n, want) {
		t.Fatalf("scalars %v, want %v", k.n, want)
	}
	if cancelled.Pending() || cancelled.Label() != "" {
		t.Fatal("cancelled AtArg ref still live after Run")
	}
}

// TestSchedulerAtArgSteadyStateAllocsNothing pins the point of AtArg: a
// bound method value plus a pointer argument schedules and runs without
// allocating.
func TestSchedulerAtArgSteadyStateAllocsNothing(t *testing.T) {
	s := NewScheduler()
	k := &argSink{got: make([]string, 0, 512), n: make([]uint64, 0, 512)}
	fn := k.handle
	tag := &argTag{"t"}
	s.AtArg(0, "warm", fn, tag, 0)
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.AtArg(s.Now().Add(Microsecond), "steady", fn, tag, 12345)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state AtArg+Step allocates %v per run, want 0", allocs)
	}
}

// TestSchedulerRecycleReleasesArgument checks that a run event's slot keeps
// no reference to its argument, and that an arena's next scheduler releases
// the arguments of events still queued in the previous one.
func TestSchedulerRecycleReleasesArgument(t *testing.T) {
	s := NewScheduler()
	k := &argSink{}
	s.AtArg(1, "ran", k.handle, &argTag{"x"}, 7)
	s.Run()
	if e := s.free; e == nil || e.arg != nil || e.argFn != nil || e.n != 0 {
		t.Fatalf("recycled event kept its argument: %+v", e)
	}

	ar := NewArena()
	old := ar.NewScheduler()
	old.AtArg(5, "queued", k.handle, &argTag{"y"}, 3)
	fresh := ar.NewScheduler()
	for e := fresh.free; e != nil; e = e.next {
		if e.arg != nil || e.argFn != nil || e.n != 0 {
			t.Fatalf("arena reused an event that kept its argument: %+v", e)
		}
	}
}
