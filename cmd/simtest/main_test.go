package main

import (
	"bytes"
	"strings"
	"testing"

	"injectable/internal/simtest"
)

func runCapture(t *testing.T, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(argv, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunFlagError(t *testing.T) {
	code, _, stderr := runCapture(t, "-nonsense")
	if code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "nonsense") {
		t.Fatalf("stderr does not mention the bad flag: %q", stderr)
	}
	if code, _, _ = runCapture(t, "stray"); code != 2 {
		t.Fatalf("stray positional arg: exit %d, want 2", code)
	}
}

func TestRunBadOverride(t *testing.T) {
	if code, _, stderr := runCapture(t, "-seed", "3", "-p", "nope=1"); code != 2 {
		t.Fatalf("unknown knob: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if code, _, _ := runCapture(t, "-seed", "3", "-p", "noequals"); code != 2 {
		t.Fatalf("malformed -p: exit %d, want 2", code)
	}
	// Spec fields are set through -spec, not -p.
	if code, _, _ := runCapture(t, "-seed", "3", "-p", "interval=7"); code != 2 {
		t.Fatalf("spec field as a knob: exit %d, want 2", code)
	}
	if code, _, _ := runCapture(t, "-seed", "3", "-spec", `{"version":1,"bogus":1}`); code != 2 {
		t.Fatalf("undecodable spec: exit %d, want 2", code)
	}
	if code, _, _ := runCapture(t, "-seed", "3", "-spec", `{"version":1,"conn":{"interval":2}}`); code != 2 {
		t.Fatalf("invalid spec: exit %d, want 2", code)
	}
	// Swarm mode must also surface knob errors, not swallow them.
	if code, _, _ := runCapture(t, "-worlds", "2", "-p", "nope=1"); code != 2 {
		t.Fatalf("swarm with unknown knob: exit %d, want 2", code)
	}
}

func TestRunSingleWorldPasses(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-seed", "3", "-spec", `{"version":1,"run":{"sim_seconds":8}}`)
	if code != 0 {
		t.Fatalf("default world: exit %d (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "all invariants hold") {
		t.Fatalf("missing pass banner: %q", stdout)
	}
}

func TestRunBrokenWideningShrinks(t *testing.T) {
	code, stdout, _ := runCapture(t, "-seed", "99", "-spec", `{"version":1,"run":{"sim_seconds":8}}`,
		"-p", "breakWidening=0.5", "-shrink")
	if code != 1 {
		t.Fatalf("broken widening: exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "widening-eq4") {
		t.Fatalf("violation not reported: %q", stdout)
	}
	if !strings.Contains(stdout, "repro: go run ./cmd/simtest -seed 99 -spec '{") ||
		!strings.Contains(stdout, "-p breakWidening=0.5") {
		t.Fatalf("repro command missing or incomplete: %q", stdout)
	}
}

// reproArgs splits a printed repro command into the argv run parses: the
// words after "go run ./cmd/simtest", with single quotes removed.
func reproArgs(t *testing.T, cmd string) []string {
	t.Helper()
	rest, ok := strings.CutPrefix(cmd, "go run ./cmd/simtest ")
	if !ok {
		t.Fatalf("repro does not run cmd/simtest: %q", cmd)
	}
	var argv []string
	for rest != "" {
		var word string
		if strings.HasPrefix(rest, "'") {
			end := strings.Index(rest[1:], "'")
			if end < 0 {
				t.Fatalf("unterminated quote in %q", cmd)
			}
			word, rest = rest[1:end+1], rest[end+2:]
		} else if i := strings.IndexByte(rest, ' '); i >= 0 {
			word, rest = rest[:i], rest[i:]
		} else {
			word, rest = rest, ""
		}
		argv = append(argv, word)
		rest = strings.TrimPrefix(rest, " ")
	}
	return argv
}

// TestReproRerunsSameWorld: the printed repro of a generated world, parsed
// back through the command line, runs a world with the same fingerprint.
// The seeds draw bystanders, walls and the hijack-master, mitm, inject and
// update goals.
func TestReproRerunsSameWorld(t *testing.T) {
	for _, seed := range []uint64{42009, 42016, 42025, 42030} {
		p := simtest.Generate(seed)
		p.Jammer, p.BreakWidening = true, 0.75
		want, err := simtest.RunWorld(seed, p)
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		o, err := parse(reproArgs(t, simtest.Repro(seed, p, false)), &stderr)
		if err != nil {
			t.Fatalf("seed %d: repro does not parse: %v (%s)", seed, err, stderr.String())
		}
		if o.seed != int64(seed) {
			t.Fatalf("repro seed %d, want %d", o.seed, seed)
		}
		got, err := simtest.RunWorld(seed, o.world(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("seed %d: repro world diverged:\noriginal: %s\nrepro:    %s",
				seed, want.Fingerprint(), got.Fingerprint())
		}
	}
}

func TestRunSwarmSmoke(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-worlds", "4", "-seed-base", "42000", "-v")
	if code != 0 {
		t.Fatalf("swarm: exit %d (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "seeds [42000, 42004)") {
		t.Fatalf("seed range not logged: %q", stdout)
	}
	if got := strings.Count(stdout, "seed 4200"); got != 4 {
		t.Fatalf("-v printed %d world lines, want 4:\n%s", got, stdout)
	}
}
