// Package host assembles the full per-device BLE stack — radio, Link
// Layer, L2CAP, ATT/GATT and Security Manager — into the two GAP roles of
// the connected mode: Peripheral (advertises, serves GATT, slave) and
// Central (scans, connects, GATT client, master).
//
// It also provides World, the container for one simulated radio
// environment: scheduler, medium and RNG, in which devices and attackers
// are placed at physical positions.
package host

import (
	"injectable/internal/ble"
	"injectable/internal/link"
	"injectable/internal/medium"
	"injectable/internal/obs"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// World is one simulated radio environment.
type World struct {
	Sched  *sim.Scheduler
	RNG    *sim.RNG
	Medium *medium.Medium
	Tracer sim.Tracer
	Obs    *obs.Hub

	// devices lists every device created in this world, so a snapshot
	// reaches link-layer and clock state even where no other pointer path
	// leads to it.
	devices []*Device
	// roots holds extra snapshot roots registered by the owner (device
	// wrappers, attacker tooling — anything reachable only through
	// callbacks, which the snapshot engine does not traverse).
	roots []any

	// streams lists every random stream reachable from the snapshot roots
	// as the last capture walk found them, and streamsAt stamps the world
	// state that walk saw; RekeyStreams walks again once they differ.
	streams   []*sim.RNG
	streamsAt worldStamp
}

// WorldConfig configures a World.
type WorldConfig struct {
	// Seed drives all randomness; runs with equal seeds are identical.
	Seed uint64
	// Medium configures propagation and capture; zero value = defaults.
	Medium medium.Config
	// Tracer observes all stack events. Nil = no tracing.
	Tracer sim.Tracer
	// Obs collects metrics and injection forensics from every layer of
	// this world (phy/medium/link/injectable). Nil = no observability.
	Obs *obs.Hub
	// Arena, when set, recycles scheduler events and frame buffers from the
	// previous world built on the same arena (one live world per arena —
	// see sim.Arena). Campaign workers thread one arena through their
	// trials; nil means fresh allocations.
	Arena *sim.Arena
}

// NewWorld creates an empty environment.
func NewWorld(cfg WorldConfig) *World {
	var sched *sim.Scheduler
	if cfg.Arena != nil {
		sched = cfg.Arena.NewScheduler()
		if cfg.Medium.Arena == nil {
			cfg.Medium.Arena = cfg.Arena.Bytes()
		}
	} else {
		sched = sim.NewScheduler()
	}
	rng := sim.NewRNG(cfg.Seed)
	if cfg.Medium.Tracer == nil {
		cfg.Medium.Tracer = cfg.Tracer
	}
	if cfg.Medium.Obs == nil {
		cfg.Medium.Obs = cfg.Obs
	}
	return &World{
		Sched:  sched,
		RNG:    rng,
		Medium: medium.New(sched, rng, cfg.Medium),
		Tracer: cfg.Tracer,
		Obs:    cfg.Obs,
	}
}

// RunFor advances the simulation by d.
func (w *World) RunFor(d sim.Duration) { w.Sched.RunFor(d) }

// Run drains the event queue (careful: periodic activity never drains).
func (w *World) Run() { w.Sched.Run() }

// Now returns the current simulation time.
func (w *World) Now() sim.Time { return w.Sched.Now() }

// DeviceConfig describes one radio device.
type DeviceConfig struct {
	// Name labels the device in traces.
	Name string
	// Address is the device address; zero draws a static random one.
	Address ble.Address
	// Position in the floor plan (metres).
	Position phy.Position
	// TxPower in dBm (0 = default 0 dBm).
	TxPower phy.DBm
	// ClockPPM rates the sleep clock (0 = 50 ppm). The actual error is
	// drawn within ±ClockPPM unless ActualPPM pins it.
	ClockPPM float64
	// ActualPPM pins the true clock error.
	ActualPPM *float64
	// ClockJitter is wakeup jitter σ (0 = 1 µs).
	ClockJitter sim.Duration
	// WideningScale shrinks the slave receive-window widening (the §VIII
	// stack-side countermeasure; 0 = spec behaviour).
	WideningScale float64
}

// Device is a positioned radio with its clock and identity — the raw
// material for Peripheral, Central, and the attacker tooling.
type Device struct {
	World *World
	Stack *link.Stack
}

// NewDevice creates a device in the world.
func (w *World) NewDevice(cfg DeviceConfig) *Device {
	rng := w.RNG.Child(cfg.Name)
	if cfg.ClockPPM == 0 {
		cfg.ClockPPM = 50
	}
	if cfg.ClockJitter == 0 {
		cfg.ClockJitter = sim.Microsecond
	}
	addr := cfg.Address
	if addr == (ble.Address{}) {
		addr = ble.RandomAddress(rng)
	}
	clock := sim.NewClock(w.Sched, rng.Child("clock"), sim.ClockConfig{
		RatedPPM:     cfg.ClockPPM,
		ActualPPM:    cfg.ActualPPM,
		JitterStdDev: cfg.ClockJitter,
	})
	radio := w.Medium.NewRadio(medium.RadioConfig{
		Name:     cfg.Name,
		Position: cfg.Position,
		TxPower:  cfg.TxPower,
	})
	d := &Device{
		World: w,
		Stack: &link.Stack{
			Name:          cfg.Name,
			Sched:         w.Sched,
			Clock:         clock,
			RNG:           rng,
			Radio:         radio,
			Tracer:        w.Tracer,
			Obs:           w.Obs,
			Address:       addr,
			WideningScale: cfg.WideningScale,
		},
	}
	w.devices = append(w.devices, d)
	return d
}

// Address returns the device's address.
func (d *Device) Address() ble.Address { return d.Stack.Address }

// Position returns the device's antenna position.
func (d *Device) Position() phy.Position { return d.Stack.Radio.Position() }

// SetPosition moves the device.
func (d *Device) SetPosition(p phy.Position) { d.Stack.Radio.SetPosition(p) }
