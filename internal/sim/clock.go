package sim

// Clock models a device-local sleep clock with a frequency error expressed
// in parts per million, plus optional white timing jitter on wakeups.
//
// BLE devices time their connection events with a low-power "sleep clock"
// whose accuracy is rated in ppm (the SCA field of CONNECT_REQ encodes the
// master's rating). The spec's window-widening formula exists to compensate
// the relative drift between the master's and slave's sleep clocks; that
// widened window is exactly what InjectaBLE races into, so the drift model
// here is load-bearing for the whole reproduction.
//
// The clock converts between "true" scheduler time and "local" device time:
//
//	local  = true  × (1 + ppm·10⁻⁶)
//	true   = local / (1 + ppm·10⁻⁶)
//
// A device that sleeps for a local duration d wakes after a true duration
// d/(1+ppm·10⁻⁶), plus a jitter sample modelling activity-start latency.
type Clock struct {
	sched *Scheduler
	// ppm is the actual frequency error of this clock. Positive means the
	// clock runs fast (local time advances faster than true time).
	ppm float64
	// ratedPPM is the accuracy the device *claims* (worst case |ppm|).
	// This is what ends up in the SCA field on air.
	ratedPPM float64
	// jitter is the standard deviation of white wakeup jitter.
	jitter Duration
	rng    *RNG
}

// ClockConfig configures a device clock.
type ClockConfig struct {
	// RatedPPM is the advertised sleep-clock accuracy (e.g. 50 for a
	// 50 ppm crystal). The actual error is drawn uniformly in
	// [-RatedPPM, +RatedPPM] unless ActualPPM is non-nil.
	RatedPPM float64
	// ActualPPM pins the actual frequency error instead of drawing it.
	ActualPPM *float64
	// JitterStdDev is the standard deviation of white wakeup jitter
	// (scheduling latency, radio ramp-up variation, ...).
	JitterStdDev Duration
}

// NewClock builds a clock attached to the scheduler, drawing its actual
// frequency error from rng when not pinned. Crystal tolerance is modelled
// as a clipped normal well inside the rating: a part rarely sits at its
// datasheet limit, and the spec's window-widening allowance assumes it
// does — that residual margin is what lets a slave re-acquire its master
// after timing disturbances.
func NewClock(sched *Scheduler, rng *RNG, cfg ClockConfig) *Clock {
	ppm := rng.NormFloat64() * cfg.RatedPPM / 2.5
	if ppm > cfg.RatedPPM {
		ppm = cfg.RatedPPM
	}
	if ppm < -cfg.RatedPPM {
		ppm = -cfg.RatedPPM
	}
	if cfg.ActualPPM != nil {
		ppm = *cfg.ActualPPM
	}
	return &Clock{
		sched:    sched,
		ppm:      ppm,
		ratedPPM: cfg.RatedPPM,
		jitter:   cfg.JitterStdDev,
		rng:      rng,
	}
}

// RatedPPM returns the accuracy rating this device advertises.
func (c *Clock) RatedPPM() float64 { return c.ratedPPM }

// ActualPPM returns the true frequency error of the clock.
func (c *Clock) ActualPPM() float64 { return c.ppm }

// scale converts a local duration to the true duration it spans.
func (c *Clock) scale(d Duration) Duration {
	return Duration(float64(d) / (1 + c.ppm*1e-6))
}

// TrueAfter returns the true-time duration corresponding to the device
// sleeping for local duration d, without jitter.
func (c *Clock) TrueAfter(d Duration) Duration { return c.scale(d) }

// SampleJitter draws one wakeup-jitter sample (may be negative).
func (c *Clock) SampleJitter() Duration {
	if c.jitter == 0 {
		return 0
	}
	return Duration(c.rng.NormFloat64() * float64(c.jitter))
}

// AfterLocal schedules fn after a local-clock duration d, applying drift
// and one jitter sample. It returns the event so callers can cancel it.
func (c *Clock) AfterLocal(d Duration, label string, fn func()) EventRef {
	td := c.scale(d) + c.SampleJitter()
	if td < 0 {
		td = 0
	}
	return c.sched.After(td, label, fn)
}

// AtLocalOffset schedules fn at base + local duration d (drift applied to d
// only), with one jitter sample. base is a true-time instant the device
// observed directly (e.g. a received frame's start), so it carries no drift.
func (c *Clock) AtLocalOffset(base Time, d Duration, label string, fn func()) EventRef {
	return c.sched.At(c.localOffset(base, d), label, fn)
}

// AtLocalOffsetArg is AtLocalOffset for an AtArg callback: it schedules
// fn(arg, n) at base + local duration d, with the same drift and single
// jitter draw.
func (c *Clock) AtLocalOffsetArg(base Time, d Duration, label string, fn func(arg any, n uint64), arg any, n uint64) EventRef {
	return c.sched.AtArg(c.localOffset(base, d), label, fn, arg, n)
}

// localOffset converts base + local duration d to a true instant no
// earlier than now, drawing one jitter sample.
func (c *Clock) localOffset(base Time, d Duration) Time {
	t := base.Add(c.scale(d) + c.SampleJitter())
	if t < c.sched.Now() {
		t = c.sched.Now()
	}
	return t
}

// DriftOver returns the absolute drift, in true time, that this clock
// accumulates over a true-time span d. Used in tests and the sensitivity
// harness to reason about window widening.
func (c *Clock) DriftOver(d Duration) Duration {
	return Duration(float64(d) * c.ppm * 1e-6)
}
