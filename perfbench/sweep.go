package main

import (
	"bytes"
	"fmt"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/scenario"
)

// sweepWorkload runs generated scenario campaigns on campaign.Runner,
// one after another, as one round: fork-crowd (forked trials on crowded
// worlds) and sweep-long (fresh trials on the exp1 shape).
type sweepWorkload struct {
	name string
	seed uint64
	gen  func(seed uint64) []scenario.Spec
	opts experiments.Options
	// twin checks the first point's forked stream against the
	// shared-fresh differential twin.
	twin bool

	specs []*campaign.Spec
}

const seedBase = 1000

func newForkCrowd(seed uint64) *sweepWorkload {
	return &sweepWorkload{
		name: "fork-crowd", seed: seed, gen: forkCrowdSpecs, twin: true,
		opts: experiments.Options{TrialsPerPoint: 40, SeedBase: seedBase, Warmup: experiments.WarmupShared},
	}
}

func newSweepLong(seed uint64) *sweepWorkload {
	return &sweepWorkload{
		name: "sweep-long", seed: seed, gen: sweepLongSpecs,
		opts: experiments.Options{TrialsPerPoint: 4, SeedBase: seedBase},
	}
}

func (w *sweepWorkload) describe() string {
	specs := w.gen(w.seed)
	// An empty fleet is the historical two-device world.
	return fmt.Sprintf("%d campaign(s) of %d points x %d trials (%d devices, warmup %q) on campaign.Runner with %d workers",
		len(specs), len(specs[0].Sweep[0].Values), w.opts.TrialsPerPoint, max(len(specs[0].Devices), 2), w.opts.Warmup, workers)
}

func (w *sweepWorkload) setup(tr *tracer) error {
	raw, err := encodeSpecs(w.gen(w.seed))
	if err != nil {
		return err
	}
	for _, b := range raw {
		cs, err := decodeCompile(b, w.opts, tr, w.name)
		if err != nil {
			return err
		}
		w.specs = append(w.specs, cs)
	}
	return nil
}

func (w *sweepWorkload) teardown() { w.specs = nil }

func (w *sweepWorkload) round(tr *tracer) (*round, error) {
	specs := w.specs
	ids := make([]int, len(specs))
	if tr != nil {
		specs = make([]*campaign.Spec, len(w.specs))
		for i, s := range w.specs {
			ids[i] = tr.next()
			specs[i] = traceWarmups(s, tr, ids[i])
		}
	}
	r := &round{}
	outs := make([]*campaign.Outcome, len(specs))
	bufs := make([]bytes.Buffer, len(specs))
	err := measure(r, func() error {
		for i, spec := range specs {
			sink := campaign.NewBinary(&bufs[i])
			runner := campaign.Runner{Workers: workers, Sinks: []campaign.Sink{sink}, CollectObs: tr != nil}
			start := time.Now()
			out, err := runner.Run(spec)
			r.jobMS = append(r.jobMS, ms(time.Since(start)))
			tr.record(ids[i], spec.Name, "campaign.run", 0, start)
			if err != nil {
				return err
			}
			if err := sink.Err(); err != nil {
				return err
			}
			outs[i] = out
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		r.ops += len(out.Results)
		r.trials += len(out.Results)
		r.jobs++
		r.streams = append(r.streams, bufs[i].Bytes())
		for _, res := range out.Results {
			r.trialMS = append(r.trialMS, ms(res.Elapsed))
			if res.Err != nil {
				r.fail("%s point %s trial %d: %v", res.Campaign, res.Point, res.Index, res.Err)
			}
		}
	}
	if tr != nil {
		r.detail = outs
	}
	return r, nil
}

// traceWarmups returns a copy of spec whose point warm-ups and trials
// are recorded as spans under the campaign's span.
func traceWarmups(spec *campaign.Spec, tr *tracer, parent int) *campaign.Spec {
	c := *spec
	c.Points = append([]campaign.Point(nil), spec.Points...)
	for i := range c.Points {
		p := &c.Points[i]
		if warm := p.Warmup; warm != nil {
			p.Warmup = func(u campaign.Warmup) (any, error) {
				start := time.Now()
				v, err := warm(u)
				tr.add(spec.Name, "experiments.warmup", parent, start)
				return v, err
			}
		}
		run := p.Run
		p.Run = func(t campaign.Trial) (any, error) {
			start := time.Now()
			v, err := run(t)
			tr.add(spec.Name, "campaign.trial", parent, start)
			return v, err
		}
	}
	return &c
}

func (w *sweepWorkload) layers(traced []*round, tr *tracer, m map[string]float64) error {
	if d := tr.durations("experiments.warmup"); len(d) > 0 {
		m["experiments.warm_ms_p50"] = median(d) / 1e3
	}
	var warmups, util, tx, rx, coll, events, missed []float64
	for _, r := range traced {
		var t, d, c, ev, mi, n float64
		for _, out := range r.detail.([]*campaign.Outcome) {
			warmups = append(warmups, float64(out.Metrics.Warmups))
			util = append(util, out.Metrics.Utilization())
			n += float64(len(out.Results))
			for _, res := range out.Results {
				if res.Obs == nil {
					continue
				}
				t += float64(counter(res.Obs, "medium.tx.frames"))
				d += float64(counter(res.Obs, "medium.rx.delivered"))
				c += float64(counter(res.Obs, "medium.rx.collisions"))
				ev += float64(counter(res.Obs, "link.event.count"))
				mi += float64(counter(res.Obs, "link.event.missed"))
			}
		}
		tx, rx, coll = append(tx, t/n), append(rx, d/n), append(coll, c/n)
		events = append(events, ev/n)
		if ev > 0 {
			missed = append(missed, mi/ev)
		}
	}
	m["experiments.warmups"] = median(warmups)
	m["campaign.utilization"] = median(util)
	m["medium.tx_frames_per_trial"] = median(tx)
	m["medium.rx_delivered_per_trial"] = median(rx)
	m["medium.collisions_per_trial"] = median(coll)
	m["link.events_per_trial"] = median(events)
	m["link.missed_event_ratio"] = median(missed)
	// Each worker warms each point of a forked campaign at most once;
	// fresh trials never warm.
	warm := m["experiments.warmups"]
	if w.opts.Warmup == "" {
		if warm != 0 {
			return fmt.Errorf("%s: fresh trials warmed %v times per campaign", w.name, warm)
		}
		return nil
	}
	if limit := float64(workers * len(w.gen(w.seed)[0].Sweep[0].Values)); warm < 1 || warm > limit {
		return fmt.Errorf("%s: %v warm-ups per campaign, want 1 to %v (workers x points)", w.name, warm, limit)
	}
	return nil
}

// check compares, on fork-crowd, the first point's forked stream with its
// shared-fresh differential twin, byte for byte.
func (w *sweepWorkload) check(*round) error {
	if !w.twin {
		return nil
	}
	return w.compareModes(experiments.WarmupShared, experiments.WarmupSharedFresh)
}

// compareModes runs the first spec's first point under two warm-up
// modes and requires byte-identical result streams.
func (w *sweepWorkload) compareModes(a, b string) error {
	raw, err := encodeSpecs(w.gen(w.seed)[:1])
	if err != nil {
		return err
	}
	sp, err := scenario.DecodeSpec(raw[0])
	if err != nil {
		return err
	}
	streams := make([][]byte, 2)
	for i, mode := range []string{a, b} {
		opts := w.opts
		opts.Warmup, opts.PointCount = mode, 1
		cs, err := scenario.Compile(sp, opts)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		runner := campaign.Runner{Workers: workers, Sinks: []campaign.Sink{campaign.NewBinary(&buf)}}
		if _, err := runner.Run(cs); err != nil {
			return err
		}
		streams[i] = buf.Bytes()
	}
	return sameStream(fmt.Sprintf("first point under warmup %q", a), streams[0],
		fmt.Sprintf("its twin under warmup %q", b), streams[1])
}

// sameStream reports whether two binary result streams are byte-identical
// and hold at least one trial.
func sameStream(aName string, a []byte, bName string, b []byte) error {
	_, tallies, err := campaign.ScanBinary(a, func(campaign.Record) error { return nil })
	if err != nil {
		return fmt.Errorf("%s: %w", aName, err)
	}
	if tallies.Trials == 0 {
		return fmt.Errorf("%s holds no trials to compare", aName)
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s (%d bytes) differs from %s (%d bytes)", aName, len(a), bName, len(b))
	}
	return nil
}
