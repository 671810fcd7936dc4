package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/fabric"
	"injectable/internal/obs"
	"injectable/internal/scenario"
	"injectable/internal/serve"
)

func TestSpecsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(uint64) []scenario.Spec{
		"fork-crowd":   forkCrowdSpecs,
		"sweep-long":   sweepLongSpecs,
		"daemon-mix":   func(s uint64) []scenario.Spec { return daemonSpecs(s, 8) },
		"fabric-shard": func(s uint64) []scenario.Spec { return fabricSpecs(s, 4) },
	}
	encode := func(specs []scenario.Spec) []byte {
		raw, err := encodeSpecs(specs)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(raw, []byte("\n"))
	}
	for name, gen := range gens {
		a, b, other := encode(gen(7)), encode(gen(7)), encode(gen(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different specs twice", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 generated the same specs", name)
		}
	}
}

func TestQuantileRefusesThinTails(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if _, err := quantile(samples(19), 0.5); err == nil || !strings.Contains(err.Error(), "of 19") {
		t.Errorf("p50 of 19 samples: err = %v, want a refusal naming the count", err)
	}
	if v, err := quantile(samples(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 20 samples = %v, %v; want 10", v, err)
	}
	if _, err := quantile(samples(199), 0.95); err == nil {
		t.Error("p95 of 199 samples printed")
	}
	if v, err := quantile(samples(200), 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 200 samples = %v, %v; want 190", v, err)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("p50 of no samples printed")
	}
}

// stubWorkload runs no program; its rounds are whatever the test says.
type stubWorkload struct {
	ops     int
	streams [][]byte
}

func (s *stubWorkload) describe() string    { return "stub" }
func (s *stubWorkload) setup(*tracer) error { return nil }
func (s *stubWorkload) teardown()           {}
func (s *stubWorkload) round(*tracer) (*round, error) {
	r := &round{ops: s.ops, trials: s.ops, jobs: 1, streams: s.streams}
	r.wall = time.Millisecond
	return r, nil
}
func (s *stubWorkload) check(*round) error                                 { return nil }
func (s *stubWorkload) layers([]*round, *tracer, map[string]float64) error { return nil }

// oneTrialStream is a well-formed binary stream holding one trial.
func oneTrialStream(attempts int) []byte {
	value, _ := json.Marshal(map[string]any{"Success": true, "Attempts": attempts})
	return campaign.EncodeBinary(campaign.StreamInfo{Name: "stub", SeedBase: 1, Points: 1, Trials: 1},
		[]campaign.Record{{Point: "p", Seed: 1, OK: true, Value: value}},
		campaign.StreamTallies{Trials: 1, OK: 1})
}

func TestRunWithZeroOpsFails(t *testing.T) {
	_, err := execute(&stubWorkload{ops: 0, streams: [][]byte{oneTrialStream(1)}},
		options{seconds: 1}, io.Discard)
	if err == nil {
		t.Fatal("a run that completed zero operations succeeded")
	}
}

func TestRunComparingNothingFails(t *testing.T) {
	res, err := execute(&stubWorkload{ops: 3}, options{seconds: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a run without any result stream to compare was marked correct")
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, io.Discard); code == 0 {
		t.Fatalf("unknown workload exited 0: %s", out.String())
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatal("a refused run printed a result")
	}
}

func TestCheckRoundsCatchesDivergentRound(t *testing.T) {
	a, b := oneTrialStream(1), oneTrialStream(2)
	ref := &round{streams: [][]byte{a}, digest: digest([][]byte{a})}
	rounds := []*round{{digest: digest([][]byte{a})}, {digest: digest([][]byte{b})}}
	if err := checkRounds(&stubWorkload{}, ref, rounds, io.Discard); err == nil {
		t.Fatal("rounds with different result streams passed")
	}
	rounds[1].digest = ref.digest
	if err := checkRounds(&stubWorkload{}, ref, rounds, io.Discard); err != nil {
		t.Fatalf("identical rounds failed: %v", err)
	}
}

func TestStealShare(t *testing.T) {
	a := parseCPUStat("cpu  100 0 50 800 10 0 5 35 0 0")
	b := parseCPUStat("cpu  150 0 60 860 10 0 5 115 0 0")
	if a.total != 1000 || a.steal != 35 {
		t.Fatalf("parsed %+v, want total 1000 steal 35", a)
	}
	if got := stealShare(a, b); got != 0.4 {
		t.Errorf("steal share = %v, want 0.4", got)
	}
	if st := parseCPUStat("intr 1 2 3"); st != (cpuStat{}) {
		t.Errorf("a line other than cpu parsed as %+v", st)
	}
	if got := stealShare(cpuStat{}, cpuStat{}); got != 0 {
		t.Errorf("steal share without /proc/stat = %v, want 0", got)
	}
}

func TestSteadyRefusesStolenRounds(t *testing.T) {
	rounds := func(steals ...float64) []*round {
		var rs []*round
		for _, s := range steals {
			rs = append(rs, &round{steal: s})
		}
		return rs
	}
	steals := func(rs []*round) []float64 {
		var v []float64
		for _, r := range rs {
			v = append(v, r.steal)
		}
		return v
	}
	got := steals(steady(rounds(0, 0.2, 0.01, 0, 0.05, 0.3)))
	if want := []float64{0, 0.01, 0, 0.05}; !slices.Equal(got, want) {
		t.Errorf("kept %v, want the unstolen rounds %v", got, want)
	}
	got = steals(steady(rounds(0.3, 0.1, 0, 0.2, 0.4, 0.06)))
	if want := []float64{0, 0.06, 0.1, 0.2}; !slices.Equal(got, want) {
		t.Errorf("kept %v, want the %d least-stolen rounds %v", got, minRounds, want)
	}
}

// Seed 3's first world loses its handshake to a bystander's advertisement.
func TestHostProbeRetriesHandshake(t *testing.T) {
	if _, err := probeWorld(3); err != nil {
		t.Fatal(err)
	}
}

func TestSameStreamCatchesMismatch(t *testing.T) {
	a := oneTrialStream(1)
	if err := sameStream("a", a, "b", oneTrialStream(2)); err == nil {
		t.Error("different streams compared equal")
	}
	corrupt := append([]byte(nil), a...)
	corrupt[len(corrupt)/2] ^= 0xff
	if err := sameStream("a", corrupt, "b", corrupt); err == nil {
		t.Error("a corrupted stream passed")
	}
	empty := campaign.EncodeBinary(campaign.StreamInfo{Name: "stub"}, nil, campaign.StreamTallies{})
	if err := sameStream("a", empty, "b", empty); err == nil {
		t.Error("two empty streams passed although they hold nothing to compare")
	}
	if err := sameStream("a", a, "b", a); err != nil {
		t.Errorf("identical streams failed: %v", err)
	}
}

func TestInjectStatsRejectsCorruptStream(t *testing.T) {
	s := oneTrialStream(3)
	inj, err := injectStats([][]byte{s})
	if err != nil || inj.attemptsPerTrial() != 3 || inj.hitRatio() != 1.0/3 {
		t.Fatalf("injectStats = %+v, %v", inj, err)
	}
	s[len(s)-3] ^= 0xff
	if _, err := injectStats([][]byte{s}); err == nil {
		t.Fatal("a corrupted stream passed")
	}
}

func TestDaemonVerifyCatchesMismatches(t *testing.T) {
	bin := oneTrialStream(1)
	var nd bytes.Buffer
	if err := campaign.TranscodeBinaryToNDJSON(&nd, bin); err != nil {
		t.Fatal(err)
	}
	ok := func(format, cache string, body []byte) reply {
		return reply{request: request{spec: 0, format: format}, status: http.StatusOK, cache: cache, body: body}
	}
	w := &daemonMix{raw: make([][]byte, 1)}
	good := []reply{
		ok(serve.FormatBinary, "miss", bin),
		ok(serve.FormatNDJSON, "hit", nd.Bytes()),
		ok(serve.FormatBinary, "hit", bin),
	}
	r := &round{}
	if err := w.verify(r, good); err != nil || r.failed != 0 || r.trials != 1 || len(r.hitMS) != 2 {
		t.Fatalf("consistent replies: err=%v round=%+v", err, r)
	}

	cases := map[string][]reply{
		"repeat differs": {good[0], good[1], ok(serve.FormatBinary, "hit", oneTrialStream(2))},
		"ndjson differs": {good[0], ok(serve.FormatNDJSON, "hit", append([]byte(" "), nd.Bytes()...))},
		"non-2xx":        {good[0], good[1], {request: request{spec: 0, format: serve.FormatBinary}, status: http.StatusTooManyRequests}},
	}
	for name, replies := range cases {
		r := &round{}
		if err := w.verify(r, replies); err == nil && r.failed == 0 {
			t.Errorf("%s: passed", name)
		}
	}
	if err := w.verify(&round{}, good[:1]); err == nil {
		t.Error("a spec fetched in one format only passed")
	}
}

func TestFabricCheckCatchesCorruptMerge(t *testing.T) {
	w := newFabricShard(5, t.TempDir())
	w.jobs = 2
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	r, err := w.round(nil)
	w.teardown()
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.jobs != 2 {
		t.Fatalf("round: %+v", r)
	}
	if err := w.check(r); err != nil {
		t.Fatalf("merged streams differ from single-process runs: %v", err)
	}
	for i := range r.streams {
		r.streams[i] = append([]byte(nil), r.streams[i]...)
		r.streams[i][len(r.streams[i])-1] ^= 0xff
	}
	if err := w.check(r); err == nil {
		t.Fatal("corrupted merged streams passed")
	}
}

func TestForkTwinCheck(t *testing.T) {
	w := newForkCrowd(3)
	w.opts.TrialsPerPoint = 4
	if err := w.check(nil); err != nil {
		t.Fatalf("forked stream differs from its shared-fresh twin: %v", err)
	}
	// Fresh trials draw their warm phase from the trial seed, so their
	// stream is a genuine mismatch the check must catch.
	if err := w.compareModes(experiments.WarmupShared, ""); err == nil {
		t.Fatal("forked and fresh streams compared equal")
	}
}

func TestTracedSplitChecks(t *testing.T) {
	outcome := func(warmups int) []*round {
		return []*round{{detail: []*campaign.Outcome{{
			Results: []campaign.Result{{}},
			Metrics: campaign.Metrics{Workers: workers, Warmups: warmups},
		}}}}
	}
	fabricRound := func(retried int) []*round {
		return []*round{{detail: []fabricJob{{report: &fabric.Report{Retried: retried}, hub: obs.NewHub()}}}}
	}
	daemonRound := func(joins int64) []*round {
		snap := &obs.Snapshot{Counters: []obs.CounterSnapshot{{Name: "serve.joins", Value: joins}}}
		return []*round{{detail: &daemonDetail{replies: []reply{{status: http.StatusOK}}, snap: snap}}}
	}
	cases := []struct {
		name    string
		w       workload
		traced  []*round
		wantErr bool
	}{
		{"fresh trials without warm-ups", newSweepLong(1), outcome(0), false},
		{"fresh trials that warmed", newSweepLong(1), outcome(1), true},
		{"forked within workers x points", newForkCrowd(1), outcome(6), false},
		{"forked beyond workers x points", newForkCrowd(1), outcome(7), true},
		{"forked without warm-ups", newForkCrowd(1), outcome(0), true},
		{"healthy fleet", newFabricShard(1, t.TempDir()), fabricRound(0), false},
		{"redispatch", newFabricShard(1, t.TempDir()), fabricRound(1), true},
		{"daemon without joins", newDaemonMix(1), daemonRound(0), false},
		{"daemon join", newDaemonMix(1), daemonRound(1), true},
	}
	for _, c := range cases {
		err := c.w.layers(c.traced, newTracer(), map[string]float64{})
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
	}
}
