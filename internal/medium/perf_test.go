package medium

import (
	"testing"

	"injectable/internal/phy"
	"injectable/internal/sim"
)

// --- scheduler-boundary edge cases around pruneActive / overlap ---

func TestPruneActiveDropsTransmissionEndingExactlyNow(t *testing.T) {
	tb := newTestbed(t, Config{})
	tx := tb.radio("tx", 0)
	tx.SetChannel(5)
	f := dataFrame(0x12345678, 10)
	tx.Transmit(f)
	end := sim.Time(phy.LE1M.AirTime(10))

	// Advance the clock to exactly the transmission's end instant. A frame
	// ending exactly at now is over (intervals are half-open [start, end)),
	// so pruneActive must drop it.
	tb.sched.RunUntil(end)
	tb.med.pruneActive()
	if n := len(tb.med.active); n != 0 {
		t.Fatalf("pruneActive kept %d transmissions ending exactly at now", n)
	}
}

func TestPruneActiveKeepsInFlightTransmission(t *testing.T) {
	tb := newTestbed(t, Config{})
	tx := tb.radio("tx", 0)
	tx.SetChannel(5)
	tx.Transmit(dataFrame(0x12345678, 10))
	end := sim.Time(phy.LE1M.AirTime(10))

	tb.sched.RunUntil(end - 1)
	tb.med.pruneActive()
	if n := len(tb.med.active); n != 1 {
		t.Fatalf("pruneActive dropped an in-flight transmission (kept %d)", n)
	}
}

func TestOverlapBoundaries(t *testing.T) {
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }
	cases := []struct {
		name           string
		a1, a2, b1, b2 sim.Time
		want           sim.Duration
	}{
		{"disjoint", us(0), us(10), us(20), us(30), 0},
		{"touching: b starts exactly when a ends", us(0), us(10), us(10), us(20), 0},
		{"touching: a starts exactly when b ends", us(10), us(20), us(0), us(10), 0},
		{"zero-length b inside a", us(0), us(10), us(5), us(5), 0},
		{"identical", us(0), us(10), us(0), us(10), sim.Duration(us(10))},
		{"partial", us(0), us(10), us(6), us(20), sim.Duration(us(4))},
		{"contained", us(0), us(10), us(2), us(4), sim.Duration(us(2))},
	}
	for _, c := range cases {
		if got := overlap(c.a1, c.a2, c.b1, c.b2); got != c.want {
			t.Errorf("%s: overlap = %v, want %v", c.name, got, c.want)
		}
		// overlap is symmetric in its two intervals.
		if got := overlap(c.b1, c.b2, c.a1, c.a2); got != c.want {
			t.Errorf("%s (swapped): overlap = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestInterferersDuringReusesScratch(t *testing.T) {
	tb := newTestbed(t, Config{})
	a := tb.radio("a", 0)
	b := tb.radio("b", 1)
	a.SetChannel(5)
	b.SetChannel(5)
	a.Transmit(dataFrame(0x1, 20))
	b.Transmit(dataFrame(0x2, 20))

	want := tb.med.active[0]
	first := tb.med.interferersDuring(want, 5, 0, sim.Time(sim.Millisecond))
	if len(first) != 1 {
		t.Fatalf("interferers = %d, want 1", len(first))
	}
	second := tb.med.interferersDuring(want, 5, 0, sim.Time(sim.Millisecond))
	if len(second) != 1 || second[0] != first[0] {
		t.Fatalf("second scan disagrees: %v vs %v", second, first)
	}
	if &first[0] != &second[0] {
		t.Error("interferersDuring did not reuse the scratch buffer")
	}
}

// --- lazy clone (no consumer → no copy, same RNG stream) ---

func TestDeliverWithoutConsumerKeepsRNGStream(t *testing.T) {
	// Two identical worlds; in one the receiver has no OnFrame. The RNG
	// draw sequence must be unaffected, which we check by comparing the
	// corruption pattern of a *later* delivered frame.
	run := func(consumeFirst bool) (pdu []byte, crc uint32) {
		tb := newTestbed(t, Config{Capture: Pessimistic{}})
		tx := tb.radio("tx", 0)
		jam := tb.radio("jam", 1)
		rx := tb.radio("rx", 2)
		for _, r := range []*Radio{tx, jam, rx} {
			r.SetChannel(5)
		}
		rx.SetAccessAddress(0x11111111)
		rx.StartListening()
		var got []Received
		if consumeFirst {
			rx.OnFrame = func(r Received) { got = append(got, r) }
		}
		// First frame collides (pessimistic capture → corrupted → corruption
		// draws consumed) whether or not OnFrame is set.
		tx.Transmit(dataFrame(0x11111111, 16))
		tb.sched.After(40*sim.Microsecond, "jam", func() {
			jam.Transmit(dataFrame(0x2222, 16))
		})
		tb.sched.Run()

		// Second frame: delivered cleanly; also corrupt it via collision so
		// its corruption pattern reflects the RNG position.
		rx.OnFrame = func(r Received) { got = append(got, r) }
		rx.StartListening()
		tx.Transmit(dataFrame(0x11111111, 16))
		tb.sched.After(40*sim.Microsecond, "jam2", func() {
			jam.Transmit(dataFrame(0x3333, 16))
		})
		tb.sched.Run()
		last := got[len(got)-1]
		if !last.Corrupted {
			t.Fatal("expected the final frame to be corrupted under Pessimistic capture")
		}
		return last.Frame.PDU, last.Frame.CRC
	}

	pduA, crcA := run(true)
	pduB, crcB := run(false)
	if crcA != crcB {
		t.Fatalf("CRC corruption diverged: %06x vs %06x — RNG stream depends on OnFrame", crcA, crcB)
	}
	for i := range pduA {
		if pduA[i] != pduB[i] {
			t.Fatalf("PDU corruption diverged at byte %d — RNG stream depends on OnFrame", i)
		}
	}
}

func TestDeliveredFrameDoesNotAliasTransmitted(t *testing.T) {
	tb := newTestbed(t, Config{})
	tx := tb.radio("tx", 0)
	rx := tb.radio("rx", 2)
	tx.SetChannel(5)
	rx.SetChannel(5)
	rx.SetAccessAddress(0x12345678)
	rx.StartListening()
	var got []Received
	rx.OnFrame = func(r Received) { got = append(got, r) }
	f := dataFrame(0x12345678, 10)
	tx.Transmit(f)
	tb.sched.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d frames", len(got))
	}
	got[0].Frame.PDU[0] ^= 0xFF
	if tb.med.active[0].frame.PDU[0] == got[0].Frame.PDU[0] {
		t.Fatal("delivered frame aliases the in-flight transmission's PDU")
	}
}

// --- path-loss cache invalidation ---

func TestPathLossCacheInvalidatedOnMove(t *testing.T) {
	tb := newTestbed(t, Config{})
	tx := tb.radio("tx", 0)
	rx := tb.radio("rx", 2)
	tr := &transmission{radio: tx, channel: 5, frame: Frame{Mode: phy.LE1M}}

	near := tb.med.rssiAt(tr, rx)
	rx.SetPosition(phy.Position{X: 8})
	far := tb.med.rssiAt(tr, rx)
	if far >= near {
		t.Fatalf("RSSI did not drop after moving away: near=%v far=%v", near, far)
	}
	rx.SetPosition(phy.Position{X: 2})
	if again := tb.med.rssiAt(tr, rx); again != near {
		t.Fatalf("RSSI after moving back = %v, want %v", again, near)
	}
	// A new radio grows the cache without breaking existing entries.
	tb.radio("late", 4)
	if again := tb.med.rssiAt(tr, rx); again != near {
		t.Fatalf("RSSI after adding a radio = %v, want %v", again, near)
	}
}

func TestPathLossCacheRespectsTxPowerChange(t *testing.T) {
	tb := newTestbed(t, Config{})
	tx := tb.radio("tx", 0)
	rx := tb.radio("rx", 2)
	tr := &transmission{radio: tx, channel: 5, frame: Frame{Mode: phy.LE1M}}
	base := tb.med.rssiAt(tr, rx)
	tx.SetTxPower(10)
	boosted := tb.med.rssiAt(tr, rx)
	if boosted != base+10 {
		t.Fatalf("RSSI after +10 dBm = %v, want %v (cache must hold loss, not power)", boosted, base+10)
	}
}

// --- allocation benchmarks (tracked by the CI regression gate) ---

// BenchmarkDeliver pins the full deliver path — RSSI lookup, interferer
// scan, fade draw — at zero allocations with tracing off and no consumer.
func BenchmarkDeliver(b *testing.B) {
	sched := sim.NewScheduler()
	med := New(sched, sim.NewRNG(42), Config{})
	tx := med.NewRadio(RadioConfig{Name: "tx", Position: phy.Position{X: 0}})
	rx := med.NewRadio(RadioConfig{Name: "rx", Position: phy.Position{X: 2}})
	tr := &transmission{
		radio: tx, channel: 5,
		frame: Frame{Mode: phy.LE1M, AccessAddress: 0x1, PDU: make([]byte, 22)},
		start: 0, end: sim.Time(phy.LE1M.AirTime(22)),
	}
	med.active = append(med.active, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med.deliver(tr, rx)
	}
}

// BenchmarkDeliverWithConsumer measures the same path with an OnFrame
// consumer attached: one arena-backed PDU clone per delivery.
func BenchmarkDeliverWithConsumer(b *testing.B) {
	sched := sim.NewScheduler()
	arena := sim.NewByteArena()
	med := New(sched, sim.NewRNG(42), Config{Arena: arena})
	tx := med.NewRadio(RadioConfig{Name: "tx", Position: phy.Position{X: 0}})
	rx := med.NewRadio(RadioConfig{Name: "rx", Position: phy.Position{X: 2}})
	rx.OnFrame = func(Received) {}
	tr := &transmission{
		radio: tx, channel: 5,
		frame: Frame{Mode: phy.LE1M, AccessAddress: 0x1, PDU: make([]byte, 22)},
		start: 0, end: sim.Time(phy.LE1M.AirTime(22)),
	}
	med.active = append(med.active, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2048 == 0 {
			arena.Reset()
		}
		med.deliver(tr, rx)
	}
}

// BenchmarkTransmitReceive is the end-to-end radio round trip: transmit,
// lock, deliver, through the scheduler.
func BenchmarkTransmitReceive(b *testing.B) {
	sched := sim.NewScheduler()
	arena := sim.NewByteArena()
	med := New(sched, sim.NewRNG(42), Config{Arena: arena})
	tx := med.NewRadio(RadioConfig{Name: "tx", Position: phy.Position{X: 0}})
	rx := med.NewRadio(RadioConfig{Name: "rx", Position: phy.Position{X: 2}})
	tx.SetChannel(5)
	rx.SetChannel(5)
	rx.SetAccessAddress(0x12345678)
	n := 0
	rx.OnFrame = func(Received) { n++; rx.StartListening() }
	rx.StartListening()
	f := Frame{Mode: phy.LE1M, AccessAddress: 0x12345678, PDU: make([]byte, 22)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2048 == 0 {
			arena.Reset()
		}
		tx.Transmit(f)
		sched.Run()
	}
	if n == 0 {
		b.Fatal("no frames delivered")
	}
}

// --- transmission recycling ---

// TestTransmitReceiveSteadyStateAllocsNothing pins the recycled hot path:
// once warm, a Transmit → lock → deliver round trip through the scheduler
// allocates nothing (transmission from the free list, lock attempt and
// rx-complete as argument events, PDU clone in the arena).
func TestTransmitReceiveSteadyStateAllocsNothing(t *testing.T) {
	tb := newTestbed(t, Config{})
	tx := tb.radio("tx", 0)
	rx := tb.radio("rx", 2)
	tx.SetChannel(5)
	rx.SetChannel(5)
	rx.SetAccessAddress(0x12345678)
	n := 0
	rx.OnFrame = func(Received) { n++; rx.StartListening() }
	rx.StartListening()
	f := dataFrame(0x12345678, 22)
	for i := 0; i < 4; i++ { // warm the free lists and the arena chunk
		tx.Transmit(f)
		tb.sched.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		tx.Transmit(f)
		tb.sched.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state transmit/lock/deliver allocates %v per frame, want 0", allocs)
	}
	if n != 205 {
		t.Fatalf("delivered %d frames, want 205", n)
	}
}

// TestStaleRxCompleteNeverSeesReusedTransmission aborts a reception with
// SetChannel and keeps the medium busy across the aborted frame's
// rx-complete instant. The aborted transmission's struct must stay out of
// the free list while its stale rx-complete is queued, be recycled right
// after it, and then carry a new frame that the same radio locks and
// receives with the new bytes; the aborted frame is never delivered.
func TestStaleRxCompleteNeverSeesReusedTransmission(t *testing.T) {
	tb := newTestbed(t, Config{})
	tx1 := tb.radio("tx1", 0)
	tx2 := tb.radio("tx2", 1)
	rx := tb.radio("rx", 2)
	const aa = 0x12345678
	frame := func(fill byte) Frame {
		f := dataFrame(aa, 10)
		for i := range f.PDU {
			f.PDU[i] = fill
		}
		return f
	}
	newest := func() *transmission { return tb.med.active[len(tb.med.active)-1] }
	var got []byte
	rx.OnFrame = func(r Received) {
		got = append(got, r.Frame.PDU[0])
		rx.StartListening()
	}
	rx.SetAccessAddress(aa)
	tx1.SetChannel(5)
	rx.SetChannel(5)
	rx.StartListening()

	tx1.Transmit(frame(0xA1))
	aborted := newest()
	end := aborted.end
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }

	// Queued now, so at the aborted frame's end it runs before the stale
	// rx-complete (queued at lock time): the active list drops the
	// aborted transmission while the rx-complete still holds it.
	var b *transmission
	tb.sched.At(end, "b", func() {
		tx2.SetChannel(6)
		tx2.Transmit(frame(0xB2))
		b = newest()
		if b == aborted {
			t.Fatal("struct reused while its rx-complete is still queued")
		}
		if aborted.refs != 1 {
			t.Fatalf("aborted transmission holds %d refs after leaving active, want 1 (rx-complete)", aborted.refs)
		}
	})
	tb.sched.RunUntil(us(60))
	if !rx.Locked() {
		t.Fatal("rx did not lock the first frame")
	}
	rx.SetChannel(6) // abort the reception; the rx-complete stays queued
	rx.StartListening()

	tb.sched.RunUntil(end)
	if tb.med.free != aborted {
		t.Fatal("aborted transmission not recycled after its stale rx-complete ran")
	}
	// B is on air until end+144µs; a frame started after it reuses the
	// recycled struct and must reach rx with its own bytes.
	var c *transmission
	tb.sched.At(end.Add(200*sim.Microsecond), "c", func() {
		tx1.SetChannel(6)
		tx1.Transmit(frame(0xC3))
		c = newest()
	})
	tb.sched.Run()
	if c != aborted {
		t.Fatal("next frame did not reuse the recycled struct")
	}
	if want := []byte{0xB2, 0xC3}; string(got) != string(want) {
		t.Fatalf("rx received first bytes %x, want %x (the aborted 0xa1 frame must never arrive)", got, want)
	}
}
