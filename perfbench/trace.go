package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/devices"
	"injectable/internal/experiments"
	"injectable/internal/host"
	"injectable/internal/link"
	"injectable/internal/phy"
	"injectable/internal/scenario"
	"injectable/internal/sim"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public entry points. Spans of one job share a trace id.
type span struct {
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans in memory for the traced run and writes them out at
// the end. A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	ids   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// next reserves a span id, so that children recorded before their parent
// ends can name it.
func (t *tracer) next() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// record stores span id, which started at start and ends now.
func (t *tracer) record(id int, trace, name string, parent int, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Trace: trace, Name: name, ID: id, Parent: parent,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		DurUS:   float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
}

// add records a childless span that started at start and ends now.
func (t *tracer) add(trace, name string, parent int, start time.Time) {
	t.record(t.next(), trace, name, parent, start)
}

// durations returns the durations in microseconds of every span named
// name, in recording order.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.DurUS)
		}
	}
	return out
}

// write dumps the spans as one JSON array to dir/<file>.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	return path, os.WriteFile(path, b, 0o644)
}

// hostProbe times the host and sim layers on a connected world of
// fork-crowd's size, built from the host and devices constructors: one
// fixed RunFor for scheduler throughput, then repeated Snapshot, Fork and
// RekeyStreams calls. It reports medians in microseconds and the
// scheduler's events per host millisecond and simulated seconds per host
// second.
func hostProbe(seed uint64, tr *tracer) (map[string]float64, error) {
	w, err := probeWorld(seed)
	if err != nil {
		return nil, err
	}

	const slice = 2 * sim.Second
	var evPerMS, simPerHost []float64
	for i := 0; i < 5; i++ {
		ev0 := w.Sched.Processed()
		start := time.Now()
		w.RunFor(slice)
		elapsed := time.Since(start)
		tr.add("host-probe", "sim.run_for", 0, start)
		evPerMS = append(evPerMS, float64(w.Sched.Processed()-ev0)/ms(elapsed))
		simPerHost = append(simPerHost, slice.Seconds()/elapsed.Seconds())
	}

	const reps = 100
	var snapUS, forkUS, rekeyUS []float64
	var snap *host.Snapshot
	for i := 0; i < reps; i++ {
		start := time.Now()
		snap = w.Snapshot()
		snapUS = append(snapUS, us(time.Since(start)))
		tr.add("host-probe", "host.snapshot", 0, start)
	}
	for i := 0; i < reps; i++ {
		w.RunFor(50 * sim.Millisecond) // dirty the state the fork restores
		start := time.Now()
		w.Fork(snap)
		forkUS = append(forkUS, us(time.Since(start)))
		tr.add("host-probe", "host.fork", 0, start)
		start = time.Now()
		w.RekeyStreams(uint64(i))
		rekeyUS = append(rekeyUS, us(time.Since(start)))
		tr.add("host-probe", "host.rekey", 0, start)
	}
	return map[string]float64{
		"host.snapshot_us":       median(snapUS),
		"host.fork_us":           median(forkUS),
		"host.rekey_us":          median(rekeyUS),
		"sim.events_per_host_ms": median(evPerMS),
		"sim.sim_s_per_host_s":   median(simPerHost),
	}, nil
}

// probeWorld builds fork-crowd's first world from the host and devices
// constructors and connects its phone to the victim. A bystander's
// advertisement can collide with the one-shot CONNECT_REQ, so a world
// that did not connect is built again from the next world seed, as the
// experiments' own warm-up retries its handshake.
func probeWorld(seed uint64) (*host.World, error) {
	spec := forkCrowdSpecs(seed)[0]
	const tries = 8
	for try := uint64(0); try < tries; try++ {
		w := host.NewWorld(host.WorldConfig{Seed: seed + try<<32})
		bulb := devices.NewLightbulb(w.NewDevice(host.DeviceConfig{Name: "bulb"}))
		phone := devices.NewSmartphone(w.NewDevice(host.DeviceConfig{
			Name: "phone", Position: phy.Position{X: 2},
		}), devices.SmartphoneConfig{
			ConnParams:       link.ConnParams{Interval: 36},
			ActivityInterval: -1,
		})
		w.AddSnapshotRoot(bulb, phone)
		for _, d := range spec.Devices[2:] {
			dev := w.NewDevice(host.DeviceConfig{Name: d.Name, Position: phy.Position{X: d.Pos.X, Y: d.Pos.Y}})
			var p *host.Peripheral
			switch d.Type {
			case "keyfob":
				f := devices.NewKeyfob(dev)
				p = f.Peripheral
				w.AddSnapshotRoot(f)
			case "smartwatch":
				sw := devices.NewSmartwatch(dev)
				p = sw.Peripheral
				w.AddSnapshotRoot(sw)
			default:
				b := devices.NewLightbulb(dev)
				p = b.Peripheral
				w.AddSnapshotRoot(b)
			}
			p.StartAdvertising()
		}
		bulb.Peripheral.StartAdvertising()
		phone.Connect(bulb.Peripheral.Device.Address())
		w.RunFor(3 * sim.Second)
		if phone.Central.Connected() {
			return w, nil
		}
	}
	return nil, fmt.Errorf("host probe: world of %d devices did not connect in %d tries", len(spec.Devices), tries)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// decodeCompile is the scenario layer's set-up path: strict decode, then
// compile against opts. Both calls are spans in a traced run.
func decodeCompile(raw []byte, opts experiments.Options, tr *tracer, trace string) (*campaign.Spec, error) {
	start := time.Now()
	sp, err := scenario.DecodeSpec(raw)
	tr.add(trace, "scenario.decode", 0, start)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	cs, err := scenario.Compile(sp, opts)
	tr.add(trace, "scenario.compile", 0, start)
	return cs, err
}
