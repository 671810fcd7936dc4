package host_test

import (
	"fmt"
	"testing"

	"injectable/internal/devices"
	"injectable/internal/host"
	"injectable/internal/link"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// connectedWorld builds a lightbulb + smartphone world and registers the
// wrappers as snapshot roots, the way fork-based trials do.
func connectedWorld(t testing.TB, seed uint64) (*host.World, *devices.Lightbulb, *devices.Smartphone) {
	t.Helper()
	w := host.NewWorld(host.WorldConfig{Seed: seed})
	bulb := devices.NewLightbulb(w.NewDevice(host.DeviceConfig{Name: "bulb"}))
	phone := devices.NewSmartphone(w.NewDevice(host.DeviceConfig{
		Name: "central", Position: phy.Position{X: 2},
	}), devices.SmartphoneConfig{
		ConnParams:       link.ConnParams{Interval: 36},
		ActivityInterval: -1,
	})
	w.AddSnapshotRoot(bulb, phone)
	bulb.Peripheral.StartAdvertising()
	phone.Connect(bulb.Peripheral.Device.Address())
	return w, bulb, phone
}

// fingerprint digests the observable end state of a run, including the
// exact positions of two random streams (equal positions mean both runs
// consumed randomness identically all the way through).
func fingerprint(w *host.World, bulb *devices.Lightbulb, phone *devices.Smartphone) string {
	probe1 := phone.Central.Device.Stack.RNG.Uint64()
	probe2 := bulb.Peripheral.Device.Stack.RNG.Uint64()
	return fmt.Sprint(w.Sched.Processed(), w.Now(), phone.Central.Connected(),
		bulb.Peripheral.Connected(), probe1, probe2)
}

func TestWorldForkReplaysIdentically(t *testing.T) {
	w, bulb, phone := connectedWorld(t, 424242)
	w.RunFor(1 * sim.Second)
	snap := w.Snapshot()

	w.RunFor(2 * sim.Second)
	first := fingerprint(w, bulb, phone)

	w.Fork(snap)
	w.RunFor(2 * sim.Second)
	if second := fingerprint(w, bulb, phone); second != first {
		t.Fatalf("forked timeline diverged:\n first=%s\nsecond=%s", first, second)
	}
}

func TestWorldForkIsRepeatable(t *testing.T) {
	w, bulb, phone := connectedWorld(t, 7)
	w.RunFor(1500 * sim.Millisecond)
	snap := w.Snapshot()

	var prints []string
	for i := 0; i < 3; i++ {
		w.Fork(snap)
		w.RunFor(1500 * sim.Millisecond)
		prints = append(prints, fingerprint(w, bulb, phone))
	}
	if prints[1] != prints[0] || prints[2] != prints[0] {
		t.Fatalf("repeated forks diverged: %v", prints)
	}
}

func TestForkRekeyMatchesFreshWorldRekey(t *testing.T) {
	const seed, salt = 99, 31337

	// Path A: warm, snapshot, fork, rekey, run.
	wa, bulbA, phoneA := connectedWorld(t, seed)
	wa.RunFor(2 * sim.Second)
	snap := wa.Snapshot()
	wa.Fork(snap)
	wa.RekeyStreams(salt)
	wa.RunFor(2 * sim.Second)
	a := fingerprint(wa, bulbA, phoneA)

	// Path B: fresh world, identical warm, rekey, run — no snapshot at all.
	wb, bulbB, phoneB := connectedWorld(t, seed)
	wb.RunFor(2 * sim.Second)
	wb.RekeyStreams(salt)
	wb.RunFor(2 * sim.Second)
	b := fingerprint(wb, bulbB, phoneB)

	if a != b {
		t.Fatalf("fork+rekey diverged from fresh+rekey:\nfork =%s\nfresh=%s", a, b)
	}
}

func TestForkForeignSnapshotPanics(t *testing.T) {
	wa, _, _ := connectedWorld(t, 1)
	wb, _, _ := connectedWorld(t, 2)
	snap := wa.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic forking a foreign snapshot")
		}
	}()
	wb.Fork(snap)
}

// rekeyedSeed is the seed Rekey(salt) gives a stream seeded with seed.
func rekeyedSeed(seed, salt uint64) uint64 { return sim.ChildNSeed(seed, "rekey", salt) }

// TestRekeyReachesStreamsAddedAfterSnapshot checks that RekeyStreams never
// rekeys a stale stream list: streams that became reachable after the last
// Snapshot — through a new root, a new device or an event — are rekeyed
// without a Fork in between, and a Fork brings back the snapshot's list.
func TestRekeyReachesStreamsAddedAfterSnapshot(t *testing.T) {
	w, _, _ := connectedWorld(t, 5)
	w.RunFor(500 * sim.Millisecond)
	holder := &struct{ g *sim.RNG }{}
	w.AddSnapshotRoot(holder)
	snap := w.Snapshot()

	late := &struct{ g *sim.RNG }{sim.NewRNG(77)}
	w.AddSnapshotRoot(late)
	w.RekeyStreams(9)
	if got, want := late.g.Seed(), rekeyedSeed(77, 9); got != want {
		t.Fatalf("stream of a root added after the snapshot: seed %#x, want %#x", got, want)
	}

	d := w.NewDevice(host.DeviceConfig{Name: "late"})
	before := d.Stack.RNG.Seed()
	w.RekeyStreams(10)
	if got, want := d.Stack.RNG.Seed(), rekeyedSeed(before, 10); got != want {
		t.Fatalf("stream of a device added after the snapshot: seed %#x, want %#x", got, want)
	}

	w.Sched.After(sim.Millisecond, "attach", func() { holder.g = sim.NewRNG(88) })
	w.RunFor(2 * sim.Millisecond)
	w.RekeyStreams(11)
	if got, want := holder.g.Seed(), rekeyedSeed(88, 11); got != want {
		t.Fatalf("stream attached by an event after the snapshot: seed %#x, want %#x", got, want)
	}

	w.Fork(snap)
	if holder.g != nil {
		t.Fatal("fork kept a stream attached after the snapshot")
	}
	g := w.RNG
	seed := g.Seed()
	w.RekeyStreams(12)
	if got, want := g.Seed(), rekeyedSeed(seed, 12); got != want {
		t.Fatalf("world stream after fork: seed %#x, want %#x", got, want)
	}
}

// TestRekeyAfterForkTakesNoWalk checks that rekeying a fork reuses the
// snapshot's stream list: no capture walk, so no allocation.
func TestRekeyAfterForkTakesNoWalk(t *testing.T) {
	w, _, _ := connectedWorld(t, 6)
	w.RunFor(500 * sim.Millisecond)
	snap := w.Snapshot()
	w.RunFor(100 * sim.Millisecond)
	w.Fork(snap)
	salt := uint64(0)
	if allocs := testing.AllocsPerRun(20, func() {
		salt++
		w.RekeyStreams(salt)
	}); allocs != 0 {
		t.Fatalf("RekeyStreams after Fork allocated %.0f times per call, want 0", allocs)
	}
}
