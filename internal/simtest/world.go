package simtest

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"strings"

	"injectable/internal/experiments"
	"injectable/internal/host"
	"injectable/internal/ids"
	"injectable/internal/injectable"
	"injectable/internal/link"
	"injectable/internal/medium"
	"injectable/internal/obs"
	"injectable/internal/phy"
	"injectable/internal/scenario"
	"injectable/internal/sim"
)

// Result is the outcome of one checked world.
type Result struct {
	Seed   uint64
	Params Params

	// Connected: the phone reached an established connection (worlds with
	// jammers or tight clocks may legitimately fail to connect).
	Connected bool
	// SnifferSynced: the attacker's sniffer was following the connection
	// when the attack phase started.
	SnifferSynced bool
	// Windows counts slave receive windows the checker inspected.
	Windows int
	// InjectTx counts attacker transmissions, Records the forensics
	// entries reconciled against them.
	InjectTx int
	Records  int
	// AttackDone/AttackSuccess: the launched goal settled (the none goal
	// trivially) / its verdict was success. Invariants are checked
	// regardless.
	AttackDone    bool
	AttackSuccess bool
	// IDSAlerts counts monitor alerts by kind (IDS worlds only).
	IDSAlerts map[ids.AlertKind]int

	Violations []Violation
	Truncated  int
}

// Failed reports whether any invariant was violated.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// InjectionAlerts sums the injection-class IDS alerts (the §VIII
// detector's positive signal).
func (r Result) InjectionAlerts() int {
	return r.IDSAlerts[ids.AlertDoubleFrame] + r.IDSAlerts[ids.AlertAnchorDeviation] +
		r.IDSAlerts[ids.AlertRogueUpdate] + r.IDSAlerts[ids.AlertScheduleSplit]
}

// Fingerprint is a deterministic digest of everything observable about the
// run — two runs of the same seed must produce equal fingerprints
// regardless of worker count or host.
func (r Result) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d connected=%t synced=%t windows=%d injectTx=%d records=%d done=%t success=%t",
		r.Seed, r.Connected, r.SnifferSynced, r.Windows, r.InjectTx, r.Records,
		r.AttackDone, r.AttackSuccess)
	kinds := make([]string, 0, len(r.IDSAlerts))
	for k := range r.IDSAlerts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, r.IDSAlerts[ids.AlertKind(k)])
	}
	fmt.Fprintf(&b, " violations=%d+%d", len(r.Violations), r.Truncated)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n%v", v)
	}
	return b.String()
}

// liveWorld is one built world with every piece of mutable run state
// reachable from struct fields. The snapshot engine reaches state through
// fields, slices and maps — not through closure variables — so anything a
// callback mutates (the trial world's attack run, the checker, the
// jammer's channel cursor) must hang off this struct, which is registered
// as a snapshot root. That is what lets ForkCheck roll a half-run world
// back and replay it.
type liveWorld struct {
	res Result

	wd  *experiments.World
	ck  *Checker
	hub *obs.Hub
	jam *jammer
}

// RunWorld builds and runs one world under the invariant engine. The error
// return is construction-level only (an invalid spec or a launch the
// attacker refused); invariant breaches and failed connections are
// reported in the Result.
func RunWorld(seed uint64, p Params) (Result, error) {
	lw, err := buildWorld(seed, p)
	if err != nil {
		return Result{}, err
	}
	if err := lw.start(); err != nil {
		return lw.res, err
	}
	lw.wd.Host().RunFor(lw.wd.Budget())
	return lw.collect(), nil
}

// buildWorld builds p's world through the DSL lowering and the trial-world
// builder with the checker as its tracer, then taps the checker into the
// medium, the victim's connection and the attacker's injector. No
// simulated time runs.
func buildWorld(seed uint64, p Params) (*liveWorld, error) {
	lw := &liveWorld{res: Result{Seed: seed, Params: p}}
	spec, d := p.Spec, scenario.Defense{}
	if spec.Defense != nil {
		d = *spec.Defense
	}
	scale := d.WideningScale
	if p.BreakWidening > 0 {
		// The fault: the world runs at the scaled widening while the
		// checker is told the spec's value, which must surface as a
		// widening-eq4 violation.
		d.WideningScale = cmp.Or(d.WideningScale, 1) * p.BreakWidening
		spec.Defense = &d
	}

	// The checker must exist before the world (it is the world's tracer),
	// but needs the world's clock; close over the late-bound pointer.
	var wd *experiments.World
	ck := NewChecker(func() sim.Time { return wd.Host().Now() }, scale)
	hub := obs.NewHub()
	wd, err := scenario.BuildWorld(spec, seed, experiments.Instrumentation{Tracer: ck, Obs: hub})
	if err != nil {
		return nil, err
	}
	lw.wd, lw.ck, lw.hub = wd, ck, hub

	w := wd.Host()
	w.Medium.AddObserver(ck)
	w.Medium.SetDeliverObserver(ck.OnDeliver)
	victim := wd.Victim()
	name := victim.Device.Stack.Name
	victim.OnConnect = func(conn *link.Conn) { ck.WatchConn(name, conn) }
	wd.Attacker().Injector.OnAttempt = func(a injectable.Attempt) {
		ck.CheckAttemptOutcome(string(a.Outcome))
	}
	if p.Jammer {
		lw.jam = startJammer(w)
	}
	w.AddSnapshotRoot(lw)
	return lw, nil
}

// start brings the connection up on the handshake fast path (3 s of
// simulated time covering advertising, CONNECT_REQ and sniffer
// synchronisation) and, if the link formed and the sniffer follows it,
// launches the attacker goal.
func (lw *liveWorld) start() error {
	err := lw.wd.Connect()
	lw.res.Connected = !errors.Is(err, experiments.ErrConnectionFailed)
	lw.res.SnifferSynced = lw.wd.Attacker().Sniffer.Following()
	if err != nil {
		return nil // a failed handshake is an outcome, not a construction error
	}
	if err := lw.wd.Launch(); err != nil {
		return fmt.Errorf("simtest: launching %s: %w", lw.res.Params.Goal(), err)
	}
	return nil
}

// collect judges the attack, reconciles the ledger and freezes the result.
// Everything it reads lives in snapshot-visible state (the trial world,
// the checker, the hub), so a fork taken before collect replays through an
// identical collect.
func (lw *liveWorld) collect() Result {
	if lw.res.Connected && lw.res.SnifferSynced {
		out, err := lw.wd.Outcome()
		lw.res.AttackDone = err == nil
		lw.res.AttackSuccess = out.Success
	}
	lw.ck.Finish(lw.hub.Ledger)
	lw.res.Windows = lw.ck.Windows()
	lw.res.InjectTx = lw.ck.InjectTxCount()
	lw.res.Records = len(lw.hub.Ledger.Records())
	if m := lw.wd.Monitor(); m != nil {
		lw.res.IDSAlerts = make(map[ids.AlertKind]int)
		for _, a := range m.Alerts() {
			lw.res.IDSAlerts[a.Kind]++
		}
	}
	lw.res.Violations = lw.ck.Violations()
	lw.res.Truncated = lw.ck.Truncated()
	return lw.res
}

// jammer emits periodic wideband noise bursts cycling across the data
// channels: 2 ms of noise every 30 ms from a dedicated raw radio. Its
// channel cursor is a struct field rather than a closure variable so that
// world snapshots capture it: each scheduled burst is the method value
// j.fire, whose only captured state is j itself (a snapshot root via
// liveWorld).
type jammer struct {
	w     *host.World
	radio *medium.Radio
	ch    phy.Channel
}

const (
	jammerBurst  = 2 * sim.Millisecond
	jammerPeriod = 30 * sim.Millisecond
)

// startJammer builds the jammer and schedules its first burst.
func startJammer(w *host.World) *jammer {
	j := &jammer{
		w: w,
		radio: w.Medium.NewRadio(medium.RadioConfig{
			Name: "jammer", Position: phy.Position{Y: -4},
		}),
	}
	w.Sched.After(jammerPeriod, "jammer:burst", j.fire)
	return j
}

// fire transmits one burst, advances the channel cursor and reschedules.
func (j *jammer) fire() {
	j.radio.SetChannel(j.ch)
	j.radio.TransmitNoise(jammerBurst)
	j.ch = phy.Channel((int(j.ch) + 7) % 37)
	j.w.Sched.After(jammerPeriod, "jammer:burst", j.fire)
}
