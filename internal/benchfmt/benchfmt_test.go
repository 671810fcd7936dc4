package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: injectable
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTableIFrameCodec   	20619765	        56.57 ns/op	      32 B/op	       2 allocs/op
BenchmarkFig9Exp1HopInterval/interval-25         	      25	  52706246 ns/op	         2.400 attempts/op	         0 failures	28185318 B/op	  491804 allocs/op
BenchmarkScenarioA/lightbulb                     	      25	  15997849 ns/op	         1.000 successRate	10025677 B/op	  173175 allocs/op
PASS
ok  	injectable	3.069s
`

func TestParse(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if s.Goos != "linux" || s.Goarch != "amd64" {
		t.Errorf("goos/goarch = %q/%q", s.Goos, s.Goarch)
	}
	if len(s.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(s.Benchmarks))
	}
	b := s.Benchmarks[1]
	if b.Name != "BenchmarkFig9Exp1HopInterval/interval-25" {
		t.Errorf("name = %q", b.Name)
	}
	if b.Iterations != 25 {
		t.Errorf("iterations = %d", b.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 52706246, "attempts/op": 2.4, "failures": 0,
		"B/op": 28185318, "allocs/op": 491804,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("metric %q = %v, want %v", unit, got, want)
		}
	}
}

func TestParseSkipsNoise(t *testing.T) {
	in := "random text\nBenchmarkBad notanumber 1 ns/op\nBenchmarkOK 10 5.0 ns/op\n"
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 1 || s.Benchmarks[0].Name != "BenchmarkOK" {
		t.Fatalf("benchmarks = %+v", s.Benchmarks)
	}
}

func TestParseLastOccurrenceWins(t *testing.T) {
	in := "BenchmarkX 10 5.0 ns/op\nBenchmarkX 20 4.0 ns/op\n"
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 1 || s.Benchmarks[0].Metrics["ns/op"] != 4.0 {
		t.Fatalf("benchmarks = %+v", s.Benchmarks)
	}
}

func suiteOf(bs ...Benchmark) *Suite { return &Suite{Benchmarks: bs} }

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1,
		Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 5))
	cur := suiteOf(bench("BenchmarkA", 100, 6))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30})
	if !rep.Failed {
		t.Fatalf("allocs/op 5→6 did not fail the gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
}

func TestCompareAllocZeroStaysZero(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 0))
	cur := suiteOf(bench("BenchmarkA", 120, 1))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30})
	if !rep.Failed {
		t.Fatal("allocs/op 0→1 did not fail the gate")
	}
}

func TestCompareNSWithinThresholdPasses(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 5))
	cur := suiteOf(bench("BenchmarkA", 120, 5))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30, NSFatal: true})
	if rep.Failed {
		t.Fatalf("+20%% ns/op failed a 30%% gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
}

func TestCompareNSBeyondThresholdWarnsByDefault(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 5))
	cur := suiteOf(bench("BenchmarkA", 200, 5))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30})
	if rep.Failed {
		t.Fatal("ns/op breach failed the gate without NSFatal")
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "warn") {
		t.Fatalf("no warning for a 100%% ns/op increase:\n%s", joined)
	}
	rep = Compare(base, cur, GateConfig{NSThresholdPct: 30, NSFatal: true})
	if !rep.Failed {
		t.Fatal("ns/op breach passed the gate with NSFatal set")
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 5))
	cur := suiteOf(bench("BenchmarkA", 40, 1))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30, NSFatal: true})
	if rep.Failed {
		t.Fatalf("improvement failed the gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
}

func TestCompareMissingBenchmarksSkipped(t *testing.T) {
	base := suiteOf(bench("BenchmarkOld", 100, 5))
	cur := suiteOf(bench("BenchmarkNew", 100, 5))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30, NSFatal: true})
	if rep.Failed {
		t.Fatalf("disjoint benchmark sets failed the gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "NEW") || !strings.Contains(joined, "GONE") {
		t.Fatalf("missing NEW/GONE markers:\n%s", joined)
	}
}

func TestCompareAllocThresholdTolerates(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 100))
	cur := suiteOf(bench("BenchmarkA", 100, 108))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30, AllocThresholdPct: 10})
	if rep.Failed {
		t.Fatalf("+8%% allocs/op failed a 10%% gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
	cur = suiteOf(bench("BenchmarkA", 100, 115))
	rep = Compare(base, cur, GateConfig{NSThresholdPct: 30, AllocThresholdPct: 10})
	if !rep.Failed {
		t.Fatalf("+15%% allocs/op passed a 10%% gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
}

func TestCompareStripsGOMAXPROCSSuffix(t *testing.T) {
	base := suiteOf(bench("BenchmarkTrialForked", 100, 5), bench("BenchmarkExp1/interval-25", 100, 7))
	cur := suiteOf(bench("BenchmarkTrialForked-2", 100, 6), bench("BenchmarkExp1/interval-25-2", 100, 7))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30})
	joined := strings.Join(rep.Lines, "\n")
	if rep.Compared != 2 {
		t.Fatalf("compared %d benchmarks, want 2:\n%s", rep.Compared, joined)
	}
	if !rep.Failed || strings.Contains(joined, "NEW") || strings.Contains(joined, "GONE") {
		t.Fatalf("suffixed run did not gate against the unsuffixed baseline:\n%s", joined)
	}
}

func TestCompareKeepsSubBenchmarkLabels(t *testing.T) {
	// At GOMAXPROCS 1 nothing is appended: "interval-25" is the label, not
	// a suffix, and must not collapse onto "interval".
	base := suiteOf(bench("BenchmarkExp1/interval-25", 100, 7), bench("BenchmarkExp1/interval-50", 100, 3))
	cur := suiteOf(bench("BenchmarkExp1/interval-25", 100, 7), bench("BenchmarkExp1/interval-50", 100, 4))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30})
	if rep.Compared != 2 || !rep.Failed {
		t.Fatalf("compared %d, failed %t:\n%s", rep.Compared, rep.Failed, strings.Join(rep.Lines, "\n"))
	}
	// A run filtered to one label shares its "-25" across every name; the
	// printed form still matches the baseline.
	cur = suiteOf(bench("BenchmarkExp1/interval-25", 100, 7))
	if rep = Compare(base, cur, GateConfig{NSThresholdPct: 30}); rep.Compared != 1 {
		t.Fatalf("single-label run compared %d:\n%s", rep.Compared, strings.Join(rep.Lines, "\n"))
	}
	if got := procsSuffix(suiteOf(bench("BenchmarkA-2", 1, 1), bench("BenchmarkExp1/interval-25-2", 1, 1)).Benchmarks); got != "-2" {
		t.Fatalf("procsSuffix = %q, want -2", got)
	}
}

func TestCompareZeroOverlapCountsNothing(t *testing.T) {
	base := suiteOf(bench("BenchmarkOld", 100, 5))
	cur := suiteOf(bench("BenchmarkNew-2", 100, 5))
	if rep := Compare(base, cur, GateConfig{NSThresholdPct: 30}); rep.Compared != 0 {
		t.Fatalf("disjoint sets compared %d benchmarks", rep.Compared)
	}
}
