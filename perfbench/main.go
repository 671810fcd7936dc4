// Command perfbench is the repository's end-to-end benchmark. It builds
// each workload's inputs from --seed, runs the workload's fixed list of
// operations in repeated rounds for --seconds, checks every output, and
// prints one JSON result line last. With --trace 1 it instead alternates
// untraced and traced rounds and prints the per-layer metrics.
//
//	go run . --workload fork-crowd --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one benchmark workload. setup builds a round's inputs (spec
// generation, decode, compile) and starts its servers; it is what setup_s
// times. round executes the fixed operation list once. check runs the
// output checks that need a reference run, on the streams of an untimed
// round. layers fills the per-layer metrics from the traced rounds and
// reports a layer that worked where the workload's design says it must
// not (a warm-up on fresh trials, a 429, a join, a redispatch).
type workload interface {
	describe() string
	setup(tr *tracer) error
	round(tr *tracer) (*round, error)
	teardown()
	check(ref *round) error
	layers(traced []*round, tr *tracer, m map[string]float64) error
}

// round is one execution of a workload's operation list.
type round struct {
	wall     time.Duration // the operations only
	ops      int           // operations attempted (trials, requests or jobs)
	failed   int
	failures []string
	trials   int // trials simulated
	jobs     int // jobs fully received and verified
	jobMS    []float64
	hitMS    []float64
	trialMS  []float64
	// streams are the deterministic result streams (binary trial-record
	// frames) the round produced, in operation order. Timed untraced
	// rounds keep only their digest, so they hold nothing while later
	// rounds read the live heap.
	streams [][]byte
	digest  string
	cpuMS   float64 // process CPU time (user+system) during the operations
	allocKB float64 // allocated during the operations
	heapMB  float64 // live heap after a forced GC at their end, less the heap before set-up
	setupS  float64 // wall time of the round's set-up
	steal   float64 // share of the host's CPU time stolen during the round
	traced  bool
	detail  any // what a traced round keeps for the workload's layers
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

const workers = 2 // trial goroutines, matching the 2-core reference host

var workloadNames = []string{"fork-crowd", "sweep-long", "daemon-mix", "fabric-shard"}

func newWorkload(name string, seed uint64, scratch string) (workload, error) {
	switch name {
	case "fork-crowd":
		return newForkCrowd(seed), nil
	case "sweep-long":
		return newSweepLong(seed), nil
	case "daemon-mix":
		return newDaemonMix(seed), nil
	case "fabric-shard":
		return newFabricShard(seed, scratch), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// outDir holds the traced run's spans and fabric-shard's journals, inside
// the checkout the benchmark runs from.
const outDir = ".bench_build/out"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "how long the rounds are measured")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	w, err := newWorkload(o.workload, o.seed, outDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, trace)
	fmt.Fprintf(stdout, "host nproc=%d GOMAXPROCS=%d go=%s trial_workers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), workers)
	fmt.Fprintf(stdout, "ops per round: %s\n", w.describe())

	res, err := execute(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// minRounds is the fewest timed rounds a run reports medians over.
const minRounds = 4

// stealLimit is the largest share of the host's CPU time the hypervisor
// may steal during a round before the round is refused: its wall time
// then says more about other guests than about the program.
const stealLimit = 0.05

// measure runs fn as a round's timed phase: its wall and CPU time, the
// bytes it allocated, and the live heap after a forced GC at its end.
func measure(r *round, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	err := fn()
	r.wall = time.Since(start)
	r.cpuMS = ms(cpuTime() - cpu0)
	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	r.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	r.heapMB = float64(live.HeapAlloc) / (1 << 20)
	return err
}

// cpuTime is the process's user plus system CPU time. The kernel does not
// charge a virtual machine's stolen time to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the host's CPU time as the first line of /proc/stat counts
// it, in clock ticks: all of it, and the part the hypervisor stole.
type cpuStat struct{ total, steal uint64 }

// readCPUStat reads the host's CPU time; where /proc/stat cannot be read
// it returns zeros, and every round then counts as unstolen.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPUStat(line)
}

// parseCPUStat parses the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq and steal make up the total.
func parseCPUStat(line string) cpuStat {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealShare is the share of the host's CPU time stolen between a and b.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// warmRounds run untimed before the timed rounds: they fill caches and
// finish the program's lazy set-up.
const warmRounds = 3

// execute runs the warm-up rounds, then timed rounds until the budget is
// spent with at least minRounds of them unstolen, then one untimed round
// whose streams the checks compare, and turns the rounds into the result
// line.
func execute(w workload, o options, out io.Writer) (*result, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	one := func(traced bool) (*round, error) {
		defer w.teardown()
		var rt *tracer
		if traced {
			rt = tr
		}
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		st0 := readCPUStat()
		start := time.Now()
		if err := w.setup(rt); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS := time.Since(start).Seconds()
		r, err := w.round(rt)
		if err != nil {
			return nil, err
		}
		r.setupS = setupS
		r.heapMB -= float64(base.HeapAlloc) / (1 << 20)
		r.steal = stealShare(st0, readCPUStat())
		r.traced = traced
		r.digest = digest(r.streams)
		return r, nil
	}

	for i := 0; i < warmRounds; i++ {
		if _, err := one(false); err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
	}

	var rounds []*round
	unstolen := 0
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	for i := 0; ; i++ {
		// A host stolen from for the whole run ends it at one and a half
		// times the budget; steady then falls back to the least-stolen
		// rounds.
		elapsed := time.Since(start)
		if elapsed >= budget && (unstolen >= minRounds || elapsed >= budget*3/2 && len(rounds) >= minRounds) {
			break
		}
		r, err := one(o.trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		if !r.traced {
			r.streams = nil
		}
		if r.steal <= stealLimit {
			unstolen++
		}
		rounds = append(rounds, r)
	}
	// The reference round: untimed, its streams kept for the checks.
	ref, err := one(false)
	if err != nil {
		return nil, fmt.Errorf("reference round: %w", err)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range append(rounds, ref) {
		res.Attempted += r.ops
		res.Failed += r.failed
		for _, f := range r.failures {
			fmt.Fprintln(out, "failed op:", f)
		}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	if err := checkRounds(w, ref, rounds, out); err != nil {
		fmt.Fprintln(out, "check failed:", err)
		res.Correct = false
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	var plain, traced []*round
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if !o.trace {
		kept := steady(plain)
		fmt.Fprintf(out, "rounds=%d kept=%d refused=%d (more than %.0f%% of host CPU time stolen)\n",
			len(plain), len(kept), len(plain)-len(kept), 100*stealLimit)
		endToEnd(kept, res.Metrics, out)
		return res, nil
	}
	m := map[string]float64{}
	if err := w.layers(traced, tr, m); err != nil {
		fmt.Fprintln(out, "check failed:", err)
		res.Correct = false
	}
	probe, err := hostProbe(o.seed, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range probe {
		m[k] = v
	}
	if d := tr.durations("scenario.decode"); len(d) > 0 {
		m["scenario.decode_us"] = median(d)
	}
	if d := tr.durations("scenario.compile"); len(d) > 0 {
		m["scenario.compile_us"] = median(d)
	}
	codecLayer(traced, m)
	m["trace.overhead_ratio"] = median(trialRates(plain)) / median(trialRates(traced))
	path, err := tr.write(outDir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	for _, lm := range layerMetrics {
		// A layer off this workload's path has no entry and reads 0.
		res.Metrics[lm.name] = metric{Value: m[lm.name], Unit: lm.unit}
	}
	return res, nil
}

// steady picks the rounds the end-to-end metrics are taken over: those
// during which the hypervisor stole at most stealLimit of the host's CPU
// time or, when fewer than minRounds are, the minRounds least-stolen.
func steady(rounds []*round) []*round {
	var kept []*round
	for _, r := range rounds {
		if r.steal <= stealLimit {
			kept = append(kept, r)
		}
	}
	if len(kept) >= minRounds {
		return kept
	}
	bySteal := append([]*round(nil), rounds...)
	sort.SliceStable(bySteal, func(i, j int) bool { return bySteal[i].steal < bySteal[j].steal })
	return bySteal[:min(minRounds, len(bySteal))]
}

// trialRates is each round's trials per second.
func trialRates(rounds []*round) []float64 {
	var v []float64
	for _, r := range rounds {
		v = append(v, float64(r.trials)/r.wall.Seconds())
	}
	return v
}

// digest is the SHA-256 of a round's result streams in order.
func digest(streams [][]byte) string {
	h := sha256.New()
	for _, s := range streams {
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRounds runs the checks every workload shares — the reference
// round's streams are not empty and every timed round yielded the same
// bytes — then the workload's own on the reference round, and prints the
// digest line.
func checkRounds(w workload, ref *round, rounds []*round, out io.Writer) error {
	if len(ref.streams) == 0 {
		return errors.New("no result stream to compare")
	}
	for i, r := range rounds {
		if r.digest != ref.digest {
			return fmt.Errorf("round %d result stream sha256 %s, reference round %s", i, r.digest, ref.digest)
		}
	}
	inj, err := injectStats(ref.streams)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "digest sha256=%s trials=%d inject.attempts_per_trial=%.4f inject.hit_ratio=%.4f\n",
		ref.digest, inj.trials, inj.attemptsPerTrial(), inj.hitRatio())
	return w.check(ref)
}

// endToEnd fills the gated end-to-end metrics from the kept rounds and
// prints them, and above them the figures that are reported but not
// gated: jobs_per_s and alloc_kb_per_job, each a fixed multiple of a
// gated metric on every workload, and the latency percentiles.
func endToEnd(rounds []*round, m map[string]metric, out io.Writer) {
	var cpt, akt, akj, jps, heap, setup, jobMS, hitMS, trialMS []float64
	for _, r := range rounds {
		cpt = append(cpt, r.cpuMS/float64(r.trials))
		akt = append(akt, r.allocKB/float64(r.trials))
		akj = append(akj, r.allocKB/float64(r.jobs))
		jps = append(jps, float64(r.jobs)/r.wall.Seconds())
		heap = append(heap, r.heapMB)
		setup = append(setup, r.setupS)
		jobMS = append(jobMS, r.jobMS...)
		hitMS = append(hitMS, r.hitMS...)
		trialMS = append(trialMS, r.trialMS...)
	}
	m["trials_per_s"] = metric{median(trialRates(rounds)), "1/s"}
	m["cpu_ms_per_trial"] = metric{median(cpt), "ms"}
	m["alloc_kb_per_trial"] = metric{median(akt), "KB"}
	m["live_heap_mb"] = metric{median(heap), "MB"}
	m["setup_s"] = metric{median(setup), "s"}

	fmt.Fprintf(out, "metric jobs_per_s %.6g 1/s (wall clock, median of %d rounds)\n", median(jps), len(rounds))
	fmt.Fprintf(out, "metric alloc_kb_per_job %.6g KB (median of %d rounds)\n", median(akj), len(rounds))
	percentiles := []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"job_ms_p50", jobMS, 0.5}, {"job_ms_p95", jobMS, 0.95},
		{"trial_ms_p50", trialMS, 0.5}, {"trial_ms_p95", trialMS, 0.95},
		{"hit_ms_p50", hitMS, 0.5}, {"hit_ms_p95", hitMS, 0.95},
	}
	for _, p := range percentiles {
		if len(p.samples) == 0 {
			continue
		}
		v, err := quantile(p.samples, p.q)
		if err != nil {
			fmt.Fprintf(out, "metric %s refused: %v\n", p.name, err)
			continue
		}
		fmt.Fprintf(out, "metric %s %.4f ms (wall clock, n=%d)\n", p.name, v, len(p.samples))
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "metric %s %.6g %s (gated, median of %d rounds)\n", k, m[k].Value, m[k].Unit, len(rounds))
	}
}
