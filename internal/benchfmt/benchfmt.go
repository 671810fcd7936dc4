// Package benchfmt parses `go test -bench` output into structured records
// and compares two runs as a regression gate. It is the in-repo stand-in
// for benchstat: no external dependency, tuned to the two decisions CI
// actually makes (allocation counts may never rise; wall time may not rise
// past a coarse threshold).
//
// Runs made with GOMAXPROCS N > 1 print every name with a trailing "-N";
// Compare matches names with that suffix removed, so a baseline recorded on
// one machine gates a run on another whatever their core counts.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and the
	// -N GOMAXPROCS suffix as printed, e.g. "BenchmarkDeliver-8".
	Name string `json:"name"`
	// Iterations is the b.N the line reports.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value, e.g. "ns/op": 19.7, "allocs/op": 0,
	// "B/op": 0, plus any custom units from b.ReportMetric such as
	// "attempts/op".
	Metrics map[string]float64 `json:"metrics"`
}

// Suite is a parsed benchmark run.
type Suite struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	// Nproc and GoVersion describe the machine and toolchain that recorded
	// a baseline (set by the recorder, not parsed from the bench output).
	Nproc      int         `json:"nproc,omitempty"`
	GoVersion  string      `json:"go_version,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output. Non-benchmark lines (headers, PASS,
// ok, build noise) are skipped. Repeated lines for the same name (e.g.
// -count=N) keep the last occurrence.
func Parse(r io.Reader) (*Suite, error) {
	s := &Suite{}
	idx := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			s.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			s.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue
		}
		if i, seen := idx[b.Name]; seen {
			s.Benchmarks[i] = b
		} else {
			idx[b.Name] = len(s.Benchmarks)
			s.Benchmarks = append(s.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseLine parses one result line:
//
//	BenchmarkName-8   1000   123.4 ns/op   5 B/op   2 allocs/op   1.5 attempts/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// GateConfig tunes Compare.
type GateConfig struct {
	// NSThresholdPct is the tolerated ns/op increase in percent.
	NSThresholdPct float64
	// NSFatal promotes ns/op breaches from warnings to failures.
	NSFatal bool
	// AllocThresholdPct is the tolerated allocs/op increase in percent.
	// The default 0 keeps the strict rule: any increase fails. A small
	// tolerance fits benchmarks whose allocation count is not perfectly
	// deterministic (HTTP paths, pooled buffers warming up).
	AllocThresholdPct float64
}

// Report is the outcome of a Compare.
type Report struct {
	Lines  []string
	Failed bool
	// Compared counts the baseline benchmarks the run matched. Zero means
	// the gate checked nothing, which callers must treat as a failure.
	Compared int
}

// procsSuffix returns the "-N" that `go test` appends to every benchmark
// name when GOMAXPROCS is N > 1, or "" when the names do not all share one
// such suffix (a GOMAXPROCS 1 run prints none, and a sub-benchmark label
// such as "interval-25" is then part of the name).
func procsSuffix(bs []Benchmark) string {
	suffix := ""
	for _, b := range bs {
		i := strings.LastIndexByte(b.Name, '-')
		if i < 0 {
			return ""
		}
		if n, err := strconv.Atoi(b.Name[i+1:]); err != nil || n < 2 {
			return ""
		}
		if suffix != "" && b.Name[i:] != suffix {
			return ""
		}
		suffix = b.Name[i:]
	}
	return suffix
}

// Compare gates cur against base. Names match with each run's GOMAXPROCS
// suffix removed; a name whose suffix-free form is absent from the
// baseline also tries its printed form. Allocation-count increases always
// fail; ns/op increases beyond the threshold fail only when cfg.NSFatal is
// set (timing on shared CI runners is too noisy for a strict gate).
// Benchmarks missing from either side are listed but never fail the gate:
// one baseline may be checked in parts by runs that each cover a subset.
func Compare(base, cur *Suite, cfg GateConfig) Report {
	var rep Report
	baseSuffix, curSuffix := procsSuffix(base.Benchmarks), procsSuffix(cur.Benchmarks)
	baseByKey := map[string]int{}
	for i, b := range base.Benchmarks {
		baseByKey[strings.TrimSuffix(b.Name, baseSuffix)] = i
	}
	curs := append([]Benchmark(nil), cur.Benchmarks...)
	sort.Slice(curs, func(i, j int) bool { return curs[i].Name < curs[j].Name })

	matched := make([]bool, len(base.Benchmarks))
	for _, c := range curs {
		i, ok := baseByKey[strings.TrimSuffix(c.Name, curSuffix)]
		if !ok {
			i, ok = baseByKey[c.Name]
		}
		if !ok {
			rep.Lines = append(rep.Lines, fmt.Sprintf("NEW   %s (no baseline, skipped)", c.Name))
			continue
		}
		matched[i] = true
		rep.Compared++
		b := base.Benchmarks[i]
		if line, failed, ok := gateMetric(c.Name, "allocs/op", b, c, cfg.AllocThresholdPct, true); ok {
			rep.Lines = append(rep.Lines, line)
			rep.Failed = rep.Failed || failed
		}
		if line, failed, ok := gateMetric(c.Name, "ns/op", b, c, cfg.NSThresholdPct, cfg.NSFatal); ok {
			rep.Lines = append(rep.Lines, line)
			rep.Failed = rep.Failed || failed
		}
	}
	var gone []string
	for i, b := range base.Benchmarks {
		if !matched[i] {
			gone = append(gone, fmt.Sprintf("GONE  %s (in baseline, not in this run)", b.Name))
		}
	}
	sort.Strings(gone)
	rep.Lines = append(rep.Lines, gone...)
	return rep
}

// gateMetric compares one metric of one benchmark, returning the rendered
// line and whether the regression rule tripped fatally.
func gateMetric(name, unit string, base, cur Benchmark, thresholdPct float64, fatal bool) (line string, failed, ok bool) {
	bv, bok := base.Metrics[unit]
	cv, cok := cur.Metrics[unit]
	if !bok || !cok {
		return "", false, false
	}
	delta := 0.0
	if bv != 0 {
		delta = (cv - bv) / bv * 100
	} else if cv > 0 {
		delta = 100
	}
	status := "ok   "
	if cv > bv && delta > thresholdPct {
		if fatal {
			status = "FAIL "
			failed = true
		} else {
			status = "warn "
		}
	}
	return fmt.Sprintf("%s %-50s %-10s %14.10g -> %-14.10g (%+.1f%%)",
		status, name, unit, bv, cv, delta), failed, true
}
