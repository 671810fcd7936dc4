package simtest

import (
	"fmt"

	"injectable/internal/ble"
	"injectable/internal/link"
	"injectable/internal/medium"
	"injectable/internal/obs"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// maxViolations bounds the report: worlds that break an invariant tend to
// break it every event, and the first few instances are the useful ones.
const maxViolations = 64

// Violation is one observed breach of a cross-layer invariant.
type Violation struct {
	Invariant string   // stable invariant name (see README "Testing & invariants")
	At        sim.Time // simulation time of the breach
	Detail    string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%v %s", v.Invariant, v.At, v.Detail)
}

// Checker is the cross-layer invariant engine. It taps the simulation's
// observation surfaces — sim.Tracer, medium.Observer, the medium delivery
// observer, per-connection window/event hooks and the forensics ledger —
// and recomputes each layer's claimed quantities independently:
//
//	time-monotonic    trace time never goes backwards
//	widening-eq4      slave widening == eq. 4/5 recomputed from its inputs
//	window-width      window width == TxWinSize + 2·widening (eq. 1/2)
//	span-eq5          steady spans are whole multiples of the interval
//	csa-channel       hop sequence matches the reference CSA#1/#2
//	event-counter     window event counters advance by 1..latency+1
//	enc-counter       encryption packet counters never decrease
//	anchor-in-window  adopted anchors lie inside the announced window
//	delivery-provenance  every delivery corresponds to a real transmission
//	delivery-instant  frames deliver exactly at their on-air end
//	corruption-attribution  corrupted ⇔ capture/noise/fade cause recorded
//	ledger-trace      ledger records ↔ inject-tx traces (≤1 in flight)
//	ledger-outcome    every record's outcome is from the closed set
//	ledger-attempt-seq   attempt numbers count 1,2,… per activity
//
// The checker is observation-only: it never mutates world state and never
// consumes RNG draws, so a checked world evolves identically to an
// unchecked one.
type Checker struct {
	now func() sim.Time
	// scale is the widening countermeasure factor the world is *supposed*
	// to run with (≤0 means spec behaviour, i.e. 1.0).
	scale float64

	violations []Violation
	truncated  int

	anyTrace    bool
	lastTraceAt sim.Time
	injectTx    int
	windows     int

	txLog map[txKey]int

	// watches keeps every per-connection watcher reachable from the
	// checker. The watchers' window/event hooks are closures, which world
	// snapshots cannot see through — this slice is what lets a snapshot
	// capture (and a fork roll back) their cursor state.
	watches []*connWatch
}

type txKey struct {
	source  string
	channel phy.Channel
	start   sim.Time
	end     sim.Time
}

// NewChecker builds an invariant engine. now reads the scheduler clock and
// wideningScale is the legitimate countermeasure scale (≤0 = spec).
func NewChecker(now func() sim.Time, wideningScale float64) *Checker {
	if wideningScale <= 0 {
		wideningScale = 1
	}
	return &Checker{now: now, scale: wideningScale, txLog: make(map[txKey]int)}
}

// violate records a breach, capping the report length.
func (ck *Checker) violate(invariant string, format string, args ...any) {
	if len(ck.violations) >= maxViolations {
		ck.truncated++
		return
	}
	ck.violations = append(ck.violations, Violation{
		Invariant: invariant,
		At:        ck.now(),
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Violations returns the breaches observed so far.
func (ck *Checker) Violations() []Violation { return ck.violations }

// Truncated returns how many further breaches were dropped past the cap.
func (ck *Checker) Truncated() int { return ck.truncated }

// Windows returns how many slave receive windows were inspected.
func (ck *Checker) Windows() int { return ck.windows }

// InjectTxCount returns how many attacker transmissions were traced.
func (ck *Checker) InjectTxCount() int { return ck.injectTx }

// CheckAttemptOutcome validates an injector attempt outcome against the
// closed outcome set (wired to injectable.Injector.OnAttempt).
func (ck *Checker) CheckAttemptOutcome(outcome string) {
	if !validOutcomes[outcome] {
		ck.violate("ledger-outcome", "injector attempt outcome %q outside the closed set", outcome)
	}
}

// Trace implements sim.Tracer: checks time monotonicity and counts
// injection transmissions for the ledger reconciliation.
func (ck *Checker) Trace(e sim.TraceEvent) {
	if ck.anyTrace && e.At < ck.lastTraceAt {
		ck.violate("time-monotonic", "trace %q from %s at t=%v after t=%v",
			e.Kind, e.Source, e.At, ck.lastTraceAt)
	}
	ck.anyTrace = true
	ck.lastTraceAt = e.At
	if e.Kind == "inject-tx" {
		ck.injectTx++
	}
}

// ObserveTx implements medium.Observer: logs every transmission start so
// deliveries can be matched back to a real source.
func (ck *Checker) ObserveTx(o medium.TxObservation) {
	ck.txLog[txKey{o.Source, o.Channel, o.StartAt, o.EndAt}]++
}

// OnDeliver checks the medium's account of one frame delivery. Install via
// Medium.SetDeliverObserver(ck.OnDeliver).
func (ck *Checker) OnDeliver(o medium.DeliverObservation) {
	key := txKey{o.Source, o.Channel, o.StartAt, o.EndAt}
	if ck.txLog[key] == 0 {
		ck.violate("delivery-provenance",
			"%s received a frame from %s on ch %d (air %v..%v) that was never transmitted",
			o.Radio, o.Source, o.Channel, o.StartAt, o.EndAt)
	}
	if now := ck.now(); now != o.EndAt {
		ck.violate("delivery-instant", "frame with on-air end %v delivered at %v", o.EndAt, now)
	}
	cause := o.CaptureLost || o.NoiseLost || o.FadeLost
	if o.Corrupted != cause {
		ck.violate("corruption-attribution",
			"corrupted=%v but capture=%v noise=%v fade=%v (rx %s ← %s)",
			o.Corrupted, o.CaptureLost, o.NoiseLost, o.FadeLost, o.Radio, o.Source)
	}
	if (o.CaptureLost || o.NoiseLost) && !o.Collided {
		ck.violate("corruption-attribution",
			"interference loss (capture=%v noise=%v) without a collision (rx %s ← %s)",
			o.CaptureLost, o.NoiseLost, o.Radio, o.Source)
	}
	if o.FadeLost {
		if snr := float64(o.RSSI) - float64(phy.NoiseFloor); snr > 16 {
			ck.violate("corruption-attribution",
				"sensitivity fade at %.1f dB SNR — fades are impossible above 16 dB (rx %s)",
				snr, o.Radio)
		}
	}
}

// connWatch tracks per-connection invariant state for one slave link.
type connWatch struct {
	ck   *Checker
	name string
	conn *link.Conn

	haveWin bool
	lastWin link.WindowInfo

	haveCtr  bool
	m2s, s2m uint64
}

// WatchConn attaches window/event invariant checks to a slave-role
// connection. Existing OnWindow/OnEvent hooks are chained, not replaced.
func (ck *Checker) WatchConn(name string, c *link.Conn) {
	if c == nil || c.Role() != link.RoleSlave {
		return
	}
	w := &connWatch{ck: ck, name: name, conn: c}
	ck.watches = append(ck.watches, w)
	prevWindow, prevEvent := c.OnWindow, c.OnEvent
	c.OnWindow = func(info link.WindowInfo) {
		w.onWindow(info)
		if prevWindow != nil {
			prevWindow(info)
		}
	}
	c.OnEvent = func(e link.EventInfo) {
		w.onEvent(e)
		if prevEvent != nil {
			prevEvent(e)
		}
	}
}

// refWidening recomputes eq. 4/5 from the window's declared inputs,
// mirroring the spec formula independently of internal/link:
//
//	widening = span·(SCA_M + SCA_S)·10⁻⁶ + 32 µs   (then countermeasure-scaled)
func refWidening(span sim.Duration, masterPPM, slavePPM, scale float64) sim.Duration {
	w := sim.Duration(float64(span)*(masterPPM+slavePPM)*1e-6) + ble.WindowWideningFloor
	return sim.Duration(float64(w) * scale)
}

func (w *connWatch) onWindow(info link.WindowInfo) {
	ck := w.ck
	ck.windows++
	params := w.conn.Params()

	// widening-eq4: the slave's applied widening must equal the paper's
	// formula on the inputs it announced.
	if want := refWidening(info.Span, info.MasterPPM, info.SlavePPM, ck.scale); info.Widening != want {
		ck.violate("widening-eq4",
			"%s event %d (%v window): widening %v, eq. 4/5 requires %v (span %v, SCA %g+%g ppm, scale %g)",
			w.name, info.Event, info.Kind, info.Widening, want,
			info.Span, info.MasterPPM, info.SlavePPM, ck.scale)
	}

	// window-width: total listening time is the transmit window (zero for
	// steady state) plus the widening applied at both edges.
	if want := info.TxWinSize + 2*info.Widening; info.Width != want {
		ck.violate("window-width",
			"%s event %d (%v window): width %v, want txWin %v + 2×%v = %v",
			w.name, info.Event, info.Kind, info.Width, info.TxWinSize, info.Widening, want)
	}
	if info.Kind == link.WindowSteady && info.TxWinSize != 0 {
		ck.violate("window-width", "%s event %d: steady window with txWinSize %v",
			w.name, info.Event, info.TxWinSize)
	}

	// span-eq5: steady-state spans stretch in whole connection intervals
	// (one per elapsed event, eq. 5).
	if info.Kind == link.WindowSteady {
		interval := params.IntervalDuration()
		if interval <= 0 || info.Span <= 0 || info.Span%interval != 0 {
			ck.violate("span-eq5", "%s event %d: span %v is not a positive multiple of interval %v",
				w.name, info.Event, info.Span, interval)
		}
	}

	// csa-channel: the event's channel must match the reference selector.
	var want uint8
	if params.CSA2 {
		want = refCSA2Channel(info.Event, params.AccessAddress, params.ChannelMap)
	} else {
		want = refCSA1Channel(info.Event, params.Hop, params.ChannelMap)
	}
	if info.Channel != want {
		algo := "CSA#1"
		if params.CSA2 {
			algo = "CSA#2"
		}
		ck.violate("csa-channel", "%s event %d: channel %d, %s reference says %d (map %v hop %d)",
			w.name, info.Event, info.Channel, algo, want, params.ChannelMap, params.Hop)
	}

	// event-counter: counters move forward by 1 plus at most the slave
	// latency (events slept through, §III-B.8).
	if w.haveWin {
		d := info.Event - w.lastWin.Event // modular uint16 distance
		if d == 0 || d > params.Latency+1 {
			ck.violate("event-counter", "%s: window event counter jumped %d → %d (latency %d)",
				w.name, w.lastWin.Event, info.Event, params.Latency)
		}
	}

	// enc-counter: per-direction nonce counters only grow.
	if m2s, s2m, ok := w.conn.EncryptionCounters(); ok {
		if w.haveCtr && (m2s < w.m2s || s2m < w.s2m) {
			ck.violate("enc-counter", "%s: packet counters went backwards (m2s %d→%d, s2m %d→%d)",
				w.name, w.m2s, m2s, w.s2m, s2m)
		}
		w.haveCtr, w.m2s, w.s2m = true, m2s, s2m
	}

	w.haveWin, w.lastWin = true, info
}

func (w *connWatch) onEvent(e link.EventInfo) {
	ck := w.ck
	if !w.haveWin {
		return
	}
	if e.Counter != w.lastWin.Event {
		ck.violate("event-counter", "%s: event %d closed but the open window was for event %d",
			w.name, e.Counter, w.lastWin.Event)
		return
	}
	if e.Missed {
		return
	}
	// anchor-in-window: whatever the slave adopted as anchor must have
	// started inside the receive window it announced (the radio can lock
	// a preamble that began up to the preamble+AA time before it tuned).
	slack := phy.LE1M.PreambleAATime() + 10*sim.Microsecond
	open, close := w.lastWin.OpenAt, w.lastWin.OpenAt.Add(w.lastWin.Width)
	if e.Anchor.Add(slack) < open || e.Anchor > close.Add(slack) {
		ck.violate("anchor-in-window",
			"%s event %d: anchor %v outside window [%v, %v] (±%v)",
			w.name, e.Counter, e.Anchor, open, close, slack)
	}
}

// validOutcomes is the closed set of forensics outcomes.
var validOutcomes = map[string]bool{
	"success":         true,
	"timing-mismatch": true,
	"seq-mismatch":    true,
	"no-response":     true,
	"connection-lost": true,
}

// Finish reconciles the forensics ledger against the trace: every injected
// transmission must be accounted for by exactly one ledger record (at most
// one attempt may still be in flight when the world ends), outcomes must
// come from the closed set, and attempt numbering must be sequential.
func (ck *Checker) Finish(led *obs.Ledger) {
	recs := led.Records()
	if d := ck.injectTx - len(recs); d < 0 || d > 1 {
		ck.violate("ledger-trace", "%d inject-tx traces but %d ledger records (want equal, ≤1 in flight)",
			ck.injectTx, len(recs))
	}
	prev := 0
	for i, r := range recs {
		if !validOutcomes[r.Outcome] {
			ck.violate("ledger-outcome", "record %d has outcome %q outside the closed set", i, r.Outcome)
		}
		if r.Outcome == "success" && r.MissReason != "" {
			ck.violate("ledger-outcome", "record %d: success with miss reason %q", i, r.MissReason)
		}
		if r.Attempt != prev+1 && r.Attempt != 1 {
			ck.violate("ledger-attempt-seq", "record %d: attempt %d after attempt %d", i, r.Attempt, prev)
		}
		prev = r.Attempt
	}
}
