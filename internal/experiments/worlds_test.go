package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"injectable/internal/obs"
	"injectable/internal/pcap"
	"injectable/internal/sim"
)

var updateWorldDigests = flag.Bool("update-world-digests", false,
	"rewrite testdata/world_digests.golden from this tree")

// digestTracer hashes every trace event in emission order.
type digestTracer struct{ h hash.Hash }

func (d digestTracer) Trace(e sim.TraceEvent) {
	d.h.Write([]byte(e.String()))
	d.h.Write([]byte{'\n'})
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// outcomeDigest covers a returned value and error together, so a changed
// error path shows as clearly as a changed result.
func outcomeDigest(v any, err error) string {
	return digest([]byte(fmt.Sprintf("%+v|%v", v, err)))
}

// instrumentedDigest runs an entry point with every observability sink
// attached and digests its outcome, forensics ledger, full trace-event
// stream and pcap capture.
func instrumentedDigest(t *testing.T, run func(Instrumentation) (any, error)) string {
	t.Helper()
	hub := obs.NewHub()
	tr := digestTracer{h: sha256.New()}
	var capture bytes.Buffer
	pw, err := pcap.NewWriter(&capture)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(Instrumentation{Tracer: tr, Obs: hub, Pcap: pw})
	ledger, jerr := json.Marshal(hub.Led().Records())
	if jerr != nil {
		t.Fatal(jerr)
	}
	return fmt.Sprintf("outcome=%s ledger=%s trace=%s pcap=%s",
		outcomeDigest(out, err), digest(ledger), hex.EncodeToString(tr.h.Sum(nil)[:8]), digest(capture.Bytes()))
}

// worldDigests runs every entry point that builds an attacker world and
// returns one "name digests" line per run, in a fixed order.
func worldDigests(t *testing.T) []string {
	var lines []string
	add := func(name, digests string) { lines = append(lines, name+" "+digests) }
	plain := func(v any, err error) string { return "outcome=" + outcomeDigest(v, err) }

	scenarios := []struct {
		name string
		run  func(string, uint64, bool, Instrumentation) (ScenarioOutcome, error)
	}{
		{"A", RunScenarioA}, {"B", RunScenarioB}, {"C", RunScenarioC}, {"D", RunScenarioD},
	}
	for _, sc := range scenarios {
		for _, target := range ScenarioTargets() {
			for _, withIDS := range []bool{false, true} {
				for seed := uint64(1); seed <= 2; seed++ {
					add(fmt.Sprintf("scenario%s/%s/ids=%t/seed=%d", sc.name, target, withIDS, seed),
						instrumentedDigest(t, func(inst Instrumentation) (any, error) {
							return sc.run(target, seed, withIDS, inst)
						}))
				}
			}
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		add(fmt.Sprintf("encrypted/seed=%d", seed), instrumentedDigest(t, func(inst Instrumentation) (any, error) {
			return RunEncryptedInjection(seed, inst)
		}))
		add(fmt.Sprintf("keystrokes/seed=%d", seed), instrumentedDigest(t, func(inst Instrumentation) (any, error) {
			return RunScenarioKeystrokes(seed, seed == 2, inst)
		}))
		add(fmt.Sprintf("app-layer-crypto/seed=%d", seed), plain(RunAppLayerCrypto(seed)))
		add(fmt.Sprintf("btlejack/seed=%d", seed), plain(RunBTLEJackBaseline(seed)))
		add(fmt.Sprintf("injectable-comparison/seed=%d", seed), plain(RunInjectaBLEMasterHijackComparison(seed)))
		for i, fig := range []func(uint64) (*Table, error){Fig1ConnectionEvents, Fig2ConnectionUpdate, Fig3AttackOverview} {
			table, err := fig(seed)
			rendered := ""
			if table != nil {
				rendered = table.Render()
			}
			add(fmt.Sprintf("fig%d/seed=%d", i+1, seed), plain(rendered, err))
		}
	}
	table, err := IDSValidation(Options{TrialsPerPoint: 4, SeedBase: 3000})
	add("ids-validation/trials=4", plain(table, err))
	outs, err := WideningReduction(Options{TrialsPerPoint: 4, SeedBase: 8000})
	add("widening-reduction/trials=4", plain(outs, err))
	return lines
}

// TestWorldDigests pins every world-building entry point — scenarios A–D
// on each target with and without the IDS, encrypted injection, keystroke
// injection, app-layer crypto, the prior-art baselines, figures 1–3 and
// the countermeasure studies — to digests of its outcome and, where the
// entry point takes Instrumentation, of its forensics ledger, complete
// trace-event stream and pcap capture. Any change to how a world is built
// or warmed shows up here. Regenerate with -update-world-digests only for
// a deliberate change of output.
func TestWorldDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every world-building entry point")
	}
	path := filepath.Join("testdata", "world_digests.golden")
	got := worldDigests(t)
	if *updateWorldDigests {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
