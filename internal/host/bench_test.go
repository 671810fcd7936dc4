package host_test

import (
	"fmt"
	"testing"

	"injectable/internal/devices"
	"injectable/internal/host"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// BenchmarkWorldForkRekey is the host layer of a forked trial: roll a
// connected world with four advertising bystanders back to its snapshot
// and rekey every random stream. Each iteration first runs 5 ms of the
// world outside the timer so the fork has state to roll back. Rekeying
// reseeds lazily, so the streams' seeding cost lands on their first draw,
// in the trial, not here.
func BenchmarkWorldForkRekey(b *testing.B) {
	w, _, phone := connectedWorld(b, 4242)
	for i := 0; i < 4; i++ {
		bulb := devices.NewLightbulb(w.NewDevice(host.DeviceConfig{
			Name: fmt.Sprintf("bystander%d", i), Position: phy.Position{X: float64(i), Y: 3},
		}))
		w.AddSnapshotRoot(bulb)
		bulb.Peripheral.StartAdvertising()
	}
	w.RunFor(3 * sim.Second)
	if !phone.Central.Connected() {
		b.Fatal("world did not connect")
	}
	snap := w.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.RunFor(5 * sim.Millisecond)
		b.StartTimer()
		w.Fork(snap)
		w.RekeyStreams(uint64(i))
	}
}
