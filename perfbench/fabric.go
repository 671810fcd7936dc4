package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/fabric"
	"injectable/internal/obs"
	"injectable/internal/scenario"
	"injectable/internal/serve"
)

// fabricShard runs a fixed list of distinct generated specs, one at a
// time, through the fabric coordinator: each is planned into one shard
// per point, dispatched in binary to two in-process worker daemons
// (TrialWorkers 1 each), journaled, and merged into one binary stream.
type fabricShard struct {
	seed    uint64
	jobs    int
	trials  int
	scratch string

	raw     [][]byte
	reg     *serve.Registry
	daemons []*serve.Server
	servers []*httptest.Server
	urls    []string
	dir     string
	journal *fabric.Journal
	http    *http.Client
}

func newFabricShard(seed uint64, scratch string) *fabricShard {
	return &fabricShard{seed: seed, jobs: 16, trials: 2, scratch: scratch, http: newHTTPClient()}
}

func (w *fabricShard) describe() string {
	return fmt.Sprintf("%d sequential sharded jobs, each a distinct spec of 4 points x %d fresh trials, across %d worker daemons (JobWorkers=1 TrialWorkers=1), binary dispatch, journaled",
		w.jobs, w.trials, workers)
}

func (w *fabricShard) options() experiments.Options {
	return experiments.Options{TrialsPerPoint: w.trials, SeedBase: seedBase}
}

func (w *fabricShard) setup(tr *tracer) error {
	var err error
	if w.raw, err = encodeSpecs(fabricSpecs(w.seed, w.jobs)); err != nil {
		return err
	}
	for _, raw := range w.raw {
		if _, err := decodeCompile(raw, w.options(), tr, "fabric-shard"); err != nil {
			return err
		}
	}
	w.reg = serve.DefaultRegistry()
	for i := 0; i < workers; i++ {
		d := serve.NewServer(serve.Config{JobWorkers: 1, TrialWorkers: 1})
		hs := httptest.NewServer(d.Handler())
		w.daemons, w.servers, w.urls = append(w.daemons, d), append(w.servers, hs), append(w.urls, hs.URL)
		if err := waitReady(w.http, hs.URL); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(w.scratch, "journal-"); err != nil {
		return err
	}
	w.journal, _, err = fabric.OpenJournal(filepath.Join(w.dir, "shards.journal"))
	return err
}

func (w *fabricShard) teardown() {
	for i := range w.servers {
		w.servers[i].Close()
		w.daemons[i].Close()
	}
	w.daemons, w.servers, w.urls = nil, nil, nil
	w.http.CloseIdleConnections()
	if w.journal != nil {
		w.journal.Close()
		w.journal = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// fabricJob is one sharded job's outcome.
type fabricJob struct {
	report *fabric.Report
	runMS  float64
	hub    *obs.Hub
}

// job runs spec i through the coordinator; its plan and run spans are
// children of job, the caller's span.
func (w *fabricShard) job(i int, tr *tracer, job int) ([]byte, fabricJob, error) {
	var fj fabricJob
	trace := fmt.Sprintf("fabric-shard/%d", i)
	spec, err := serve.ScenarioJobSpec(w.raw[i], serve.JobSpec{Trials: w.trials, SeedBase: seedBase})
	if err != nil {
		return nil, fj, err
	}
	start := time.Now()
	plan, err := fabric.PlanShards(w.reg, spec, 0)
	tr.add(trace, "fabric.plan", job, start)
	if err != nil {
		return nil, fj, err
	}
	if tr != nil {
		fj.hub = obs.NewHub()
	}
	var buf bytes.Buffer
	start = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fj.report, err = fabric.Run(ctx, fabric.Config{
		Workers: w.urls, HTTP: w.http, Journal: w.journal,
		Format: serve.FormatBinary, Hub: fj.hub,
	}, plan, &buf)
	fj.runMS = ms(time.Since(start))
	tr.add(trace, "fabric.run", job, start)
	return buf.Bytes(), fj, err
}

func (w *fabricShard) round(tr *tracer) (*round, error) {
	r := &round{}
	jobs := make([]fabricJob, 0, w.jobs)
	err := measure(r, func() error {
		for i := range w.raw {
			start, id := time.Now(), tr.next()
			stream, fj, err := w.job(i, tr, id)
			if err != nil {
				return fmt.Errorf("job %d: %w", i, err)
			}
			r.jobMS = append(r.jobMS, ms(time.Since(start)))
			tr.record(id, fmt.Sprintf("fabric-shard/%d", i), "fabric.job", 0, start)
			r.streams = append(r.streams, stream)
			jobs = append(jobs, fj)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, fj := range jobs {
		r.ops++
		r.trials += fj.report.Trials
		if fj.report.Failed > 0 {
			r.fail("job %d: %d of %d trials failed, first: %s", i, fj.report.Failed, fj.report.Trials, firstError(r.streams[i]))
			continue
		}
		r.jobs++
	}
	if tr != nil {
		r.detail = jobs
	}
	return r, nil
}

// check runs a seeded sample of the specs in a single process and
// compares the merged streams with those bytes.
func (w *fabricShard) check(ref *round) error {
	r := newRand(w.seed, "fabric-check")
	for _, i := range r.Perm(len(w.raw))[:2] {
		sp, err := scenario.DecodeSpec(w.raw[i])
		if err != nil {
			return err
		}
		cs, err := scenario.Compile(sp, w.options())
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		runner := campaign.Runner{Workers: workers, Sinks: []campaign.Sink{campaign.NewBinary(&buf)}}
		if _, err := runner.Run(cs); err != nil {
			return err
		}
		if err := sameStream(fmt.Sprintf("single-process run of spec %d", i), buf.Bytes(),
			"merged stream", ref.streams[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *fabricShard) layers(traced []*round, tr *tracer, m map[string]float64) error {
	if d := tr.durations("fabric.plan"); len(d) > 0 {
		m["fabric.plan_us"] = median(d)
	}
	var shardMS, mergeMS, dispatched, redispatched []float64
	for _, r := range traced {
		var disp, redisp int
		for _, fj := range r.detail.([]fabricJob) {
			disp += fj.report.Dispatched
			redisp += fj.report.Retried
			busy := map[string]float64{} // dispatch time per worker
			for _, s := range fj.hub.Spans().Snapshot() {
				if s.Name == "dispatch" {
					d := float64(s.DurUS) / 1e3
					shardMS = append(shardMS, d)
					busy[s.Args["worker"]] += d
				}
			}
			busiest := 0.0
			for _, b := range busy {
				busiest = max(busiest, b)
			}
			mergeMS = append(mergeMS, fj.runMS-busiest)
		}
		dispatched = append(dispatched, float64(disp))
		redispatched = append(redispatched, float64(redisp))
	}
	m["fabric.shard_ms_p50"] = median(shardMS)
	m["fabric.merge_ms"] = median(mergeMS)
	m["fabric.shards_dispatched"] = median(dispatched)
	m["fabric.redispatches"] = median(redispatched)
	if m["fabric.redispatches"] != 0 {
		return fmt.Errorf("fabric-shard redispatched %v shards per round on a healthy fleet", m["fabric.redispatches"])
	}
	return nil
}
