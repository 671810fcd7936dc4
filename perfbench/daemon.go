package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/obs"
	"injectable/internal/serve"
)

// daemonMix drives POST /v1/scenario on an in-process daemon from two
// closed-loop clients. Each client owns its own specs and walks a fixed
// sequence: spec i is submitted new (a cache miss that compiles and runs
// a one-trial forked campaign), then repeated once in each of the next
// 48 slots of the list (cache hits that replay it). Formats alternate
// between binary and NDJSON per spec and occurrence, so every spec is
// fetched in both.
//
// The mix is sized so that hits, which are the serve and scenario paths,
// take most of the round: 48 hits per miss put about two thirds of the
// round's CPU and client time on hits (serve.hit_cpu_share and
// serve.hit_wall_share in the traced run), where 3 hits per miss of a
// 2-point, 3-trial campaign put 3–5% there and left the simulation
// dominant.
type daemonMix struct {
	seed      uint64
	perClient int
	repeats   int
	trials    int

	raw  [][]byte
	srv  *serve.Server
	hs   *httptest.Server
	http *http.Client
}

func newDaemonMix(seed uint64) *daemonMix {
	return &daemonMix{seed: seed, perClient: 4, repeats: 48, trials: 1, http: newHTTPClient()}
}

const daemonClients = 2

func (w *daemonMix) describe() string {
	n := daemonClients * w.perClient
	return fmt.Sprintf("%d POST /v1/scenario from %d closed-loop clients: %d new specs (1 point x %d forked trial(s)) + %d repeats; daemon JobWorkers=%d TrialWorkers=1",
		n*(1+w.repeats), daemonClients, n, w.trials, n*w.repeats, workers)
}

func (w *daemonMix) query(format string) string {
	return fmt.Sprintf("/v1/scenario?trials=%d&seed_base=%d&warmup=%s&format=%s",
		w.trials, seedBase, experiments.WarmupShared, format)
}

func (w *daemonMix) setup(tr *tracer) error {
	var err error
	if w.raw, err = encodeSpecs(daemonSpecs(w.seed, daemonClients*w.perClient)); err != nil {
		return err
	}
	opts := experiments.Options{TrialsPerPoint: w.trials, SeedBase: seedBase, Warmup: experiments.WarmupShared}
	for _, raw := range w.raw {
		if _, err := decodeCompile(raw, opts, tr, "daemon-mix"); err != nil {
			return err
		}
	}
	w.srv = serve.NewServer(serve.Config{
		Hub:          obs.NewHub(),
		JobWorkers:   workers,
		TrialWorkers: 1,
		CacheEntries: 256,
	})
	w.hs = httptest.NewServer(w.srv.Handler())
	return waitReady(w.http, w.hs.URL)
}

// newHTTPClient is the benchmark's loopback client. Its timeout bounds a
// stuck daemon well inside the run's time limit.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: workers},
		Timeout:   time.Minute,
	}
}

// waitReady polls GET /readyz until the daemon answers 200.
func waitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not ready: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *daemonMix) teardown() {
	if w.hs != nil {
		w.hs.Close()
		w.srv.Close()
		w.hs, w.srv = nil, nil
	}
	w.http.CloseIdleConnections()
}

// request is one operation of a client's fixed list.
type request struct {
	spec   int
	format string
}

// reply is one request's outcome as the client saw it.
type reply struct {
	request
	status int
	cache  string
	ms     float64
	body   []byte
	err    error
}

// sequence is one client's fixed operation list. It submits each of its
// specs new, then repeats spec i once in each of the next w.repeats
// slots, so a repeat is always a hit and never joins an in-flight job.
func (w *daemonMix) sequence(client int) []request {
	first := client * w.perClient
	var seq []request
	add := func(spec, occurrence int) {
		seq = append(seq, request{spec: spec, format: formatOf(spec, occurrence)})
	}
	for t := 0; t < w.perClient+w.repeats; t++ {
		if t < w.perClient {
			add(first+t, 0)
		}
		for lag := 1; lag <= w.repeats; lag++ {
			if i := t - lag; i >= 0 && i < w.perClient {
				add(first+i, lag)
			}
		}
	}
	return seq
}

func formatOf(spec, occurrence int) string {
	if (spec+occurrence)%2 == 0 {
		return serve.FormatBinary
	}
	return serve.FormatNDJSON
}

// drive runs one closed-loop client per request list, concurrently, and
// returns each client's replies in order.
func (w *daemonMix) drive(seqs [][]request, tr *tracer) [][]reply {
	replies := make([][]reply, len(seqs))
	var wg sync.WaitGroup
	for c, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[c] = w.client(seq, tr)
		}()
	}
	wg.Wait()
	return replies
}

func (w *daemonMix) client(seq []request, tr *tracer) []reply {
	var out []reply
	for _, req := range seq {
		rp := reply{request: req}
		start := time.Now()
		resp, err := w.http.Post(w.hs.URL+w.query(rp.format), "application/json", bytes.NewReader(w.raw[rp.spec]))
		if err == nil {
			rp.status, rp.cache = resp.StatusCode, resp.Header.Get("X-Cache")
			rp.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		rp.ms = ms(time.Since(start))
		tr.add(fmt.Sprintf("daemon-mix/%d", rp.spec), "serve.request."+rp.cache, 0, start)
		rp.err = err
		out = append(out, rp)
	}
	return out
}

// daemonDetail is what a traced round keeps for the serve layer.
type daemonDetail struct {
	replies []reply
	snap    *obs.Snapshot
	// hitCPUShare is the CPU time of replaying the round's hits alone,
	// as a share of the round's CPU time.
	hitCPUShare float64
}

func (w *daemonMix) round(tr *tracer) (*round, error) {
	seqs := make([][]request, daemonClients)
	for c := range seqs {
		seqs[c] = w.sequence(c)
	}
	var replies [][]reply
	r := &round{}
	_ = measure(r, func() error {
		replies = w.drive(seqs, tr)
		return nil
	})
	var all []reply
	for _, rs := range replies {
		all = append(all, rs...)
	}
	if err := w.verify(r, all); err != nil {
		return nil, err
	}
	if tr != nil {
		snap, err := (&serve.Client{Base: w.hs.URL, HTTP: w.http}).Metrics(context.Background())
		if err != nil {
			return nil, err
		}
		share, err := w.hitShare(replies, r.cpuMS)
		if err != nil {
			return nil, err
		}
		r.detail = &daemonDetail{replies: all, snap: snap, hitCPUShare: share}
	}
	return r, nil
}

// hitShare replays the round's cache hits alone, from the same clients in
// the same order, and returns their CPU time as a share of the round's.
// It tells how much of daemon-mix is the serve path rather than the
// misses' simulation.
func (w *daemonMix) hitShare(replies [][]reply, roundCPU float64) (float64, error) {
	hits := make([][]request, len(replies))
	for c, rs := range replies {
		for _, rp := range rs {
			if rp.cache == "hit" {
				hits[c] = append(hits[c], rp.request)
			}
		}
	}
	cpu0 := cpuTime()
	for _, rs := range w.drive(hits, nil) {
		for _, rp := range rs {
			if rp.err != nil || rp.status != http.StatusOK || rp.cache != "hit" {
				return 0, fmt.Errorf("replaying hit on spec %d: status %d, X-Cache %q: %v", rp.spec, rp.status, rp.cache, rp.err)
			}
		}
	}
	return ms(cpuTime()-cpu0) / roundCPU, nil
}

// verify classifies every reply, fails the ones whose bytes disagree,
// and fills the round's counts and per-spec binary streams:
//   - each repeat returns the same bytes as the spec's first response in
//     that format;
//   - each spec's NDJSON equals TranscodeBinaryToNDJSON of its binary;
//   - every trial in a stream ended without error.
func (w *daemonMix) verify(r *round, replies []reply) error {
	type firsts struct{ binary, ndjson []byte }
	first := make([]firsts, len(w.raw))
	trials := make([]int, len(w.raw))
	compared := 0
	for _, rp := range replies {
		r.ops++
		if rp.err != nil || rp.status != http.StatusOK {
			r.fail("spec %d %s: status %d: %v %s", rp.spec, rp.format, rp.status, rp.err, rp.body)
			continue
		}
		slot := &first[rp.spec].binary
		if rp.format == serve.FormatNDJSON {
			slot = &first[rp.spec].ndjson
		}
		if *slot == nil {
			*slot = rp.body
		} else {
			compared++
			if !bytes.Equal(*slot, rp.body) {
				r.fail("spec %d %s (%s): repeat differs from the first response", rp.spec, rp.format, rp.cache)
				continue
			}
		}
		r.jobs++
		switch rp.cache {
		case "miss":
			r.jobMS = append(r.jobMS, rp.ms)
		case "hit":
			r.hitMS = append(r.hitMS, rp.ms)
		}
	}
	for i, f := range first {
		if f.binary == nil || f.ndjson == nil {
			return fmt.Errorf("spec %d was not fetched in both formats", i)
		}
		var nd bytes.Buffer
		if err := campaign.TranscodeBinaryToNDJSON(&nd, f.binary); err != nil {
			r.fail("spec %d: binary stream: %v", i, err)
			continue
		}
		if !bytes.Equal(nd.Bytes(), f.ndjson) {
			r.fail("spec %d: NDJSON response differs from the transcoded binary response", i)
		}
		_, tallies, err := campaign.ScanBinary(f.binary, func(campaign.Record) error { return nil })
		if err != nil {
			return err // transcoded above, so the stream is well-formed
		}
		if tallies.Failed > 0 {
			r.fail("spec %d: %d of %d trials failed, first: %s", i, tallies.Failed, tallies.Trials, firstError(f.binary))
		}
		trials[i] = tallies.Trials
		r.streams = append(r.streams, f.binary)
		compared++
	}
	for _, rp := range replies {
		if rp.cache == "miss" && rp.status == http.StatusOK {
			r.trials += trials[rp.spec]
		}
	}
	if compared == 0 {
		return errors.New("daemon-mix compared no responses")
	}
	return nil
}

func (w *daemonMix) check(*round) error { return nil }

func (w *daemonMix) layers(traced []*round, _ *tracer, m map[string]float64) error {
	var wait, hitRatio, hitWall, hitCPU, joins, rejects, kbPerJob []float64
	for _, r := range traced {
		d := r.detail.(*daemonDetail)
		if h, ok := histogram(d.snap, "serve.queue_wait_ms"); ok {
			wait = append(wait, h.Quantile(0.5))
		}
		hits, throttled, kb := 0, 0, 0.0
		var hitMS, allMS float64
		for _, rp := range d.replies {
			allMS += rp.ms
			if rp.cache == "hit" {
				hits++
				hitMS += rp.ms
			}
			if rp.status == http.StatusTooManyRequests {
				throttled++
			}
			kb += float64(len(rp.body)) / 1024
		}
		n := float64(len(d.replies))
		hitRatio = append(hitRatio, float64(hits)/n)
		if allMS > 0 {
			hitWall = append(hitWall, hitMS/allMS)
		}
		hitCPU = append(hitCPU, d.hitCPUShare)
		joins = append(joins, float64(counter(d.snap, "serve.joins")))
		rejects = append(rejects, float64(throttled+int(counter(d.snap, "serve.reject_queue_full"))))
		kbPerJob = append(kbPerJob, kb/n)
	}
	m["serve.queue_wait_ms_p50"] = median(wait)
	m["serve.hit_ratio"] = median(hitRatio)
	m["serve.hit_wall_share"] = median(hitWall)
	m["serve.hit_cpu_share"] = median(hitCPU)
	m["serve.joins"] = median(joins)
	m["serve.rejects_429"] = median(rejects)
	m["serve.stream_kb_per_job"] = median(kbPerJob)
	if m["serve.rejects_429"] != 0 || m["serve.joins"] != 0 {
		return fmt.Errorf("daemon-mix saw %v rejects and %v joins; its clients are sized for neither",
			m["serve.rejects_429"], m["serve.joins"])
	}
	return nil
}
