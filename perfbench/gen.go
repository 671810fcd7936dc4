package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"

	"injectable/internal/scenario"
)

// Every workload's inputs are scenario specs generated here from the run's
// seed and nothing else: the same seed yields byte-identical spec bytes,
// which the program only ever sees through scenario.DecodeSpec.

// newRand derives the generator stream of one workload from the seed.
func newRand(seed uint64, stream string) *rand.Rand {
	var salt uint64 = 0xcbf29ce484222325
	for i := 0; i < len(stream); i++ {
		salt = (salt ^ uint64(stream[i])) * 0x100000001b3
	}
	return rand.New(rand.NewPCG(seed, salt))
}

var bystanderTypes = []string{"lightbulb", "keyfob", "smartwatch"}

// bystanders places n advertising peripherals 1.5–4 m to either side of
// the victim–phone axis.
func bystanders(r *rand.Rand, n int) []scenario.Device {
	out := make([]scenario.Device, n)
	for i := range out {
		out[i] = scenario.Device{
			Type: bystanderTypes[r.IntN(len(bystanderTypes))],
			Name: fmt.Sprintf("by%d", i),
			Pos:  &scenario.Pos{X: round2(-4 + 8*r.Float64()), Y: round2(1.5 + 2.5*r.Float64())},
		}
		if r.IntN(2) == 0 {
			out[i].Pos.Y = -out[i].Pos.Y
		}
	}
	return out
}

func round2(v float64) float64 { return float64(int(v*100)) / 100 }

// attackSeconds is the crowded worlds' per-trial attack budget. The
// injector arms an attempt only on a cleanly sniffed event, so a few
// trials wait long: at 2 s about one trial in 15,000 ends "did not
// settle", and each extra half second roughly halves that. At 5 s none
// of 89,600 trials over 100 seeds failed.
const attackSeconds = 5

// crowdSpec is the crowded world with a short attack: a phone, a
// lightbulb victim and bystanders (devices total, attacker excluded), an
// interval sweep around 36 and a small attempt budget.
func crowdSpec(r *rand.Rand, name string, devices, points int) scenario.Spec {
	fleet := []scenario.Device{
		{Type: "phone", Name: "phone", Pos: &scenario.Pos{X: 2}},
		{Type: "lightbulb", Name: "bulb"},
	}
	fleet = append(fleet, bystanders(r, devices-2)...)
	// Distinct hop intervals from 30, 33, …, 42, in ascending order.
	ks := r.Perm(5)[:points]
	slices.Sort(ks)
	values := make([]float64, points)
	for i, k := range ks {
		values[i] = float64(30 + 3*k)
	}
	return scenario.Spec{
		Version:  scenario.Version,
		Name:     name,
		Seed:     &scenario.SeedLayout{Offset: uint64(r.IntN(1 << 20))},
		Devices:  fleet,
		Attacker: &scenario.Attacker{MaxAttempts: 40},
		Run:      &scenario.Run{SimSeconds: attackSeconds},
		Sweep:    []scenario.Axis{{Field: "conn.interval", Values: values}},
	}
}

// forkCrowdSpecs are the fork-crowd workload's campaigns: four crowded
// worlds of 7 devices each, swept over hop intervals 33, 36 and 39. The seed moves the bystanders and the
// trials' seeds but not the worlds' size, and four worlds average out
// what one unlucky handshake costs, so every seed costs about the same.
func forkCrowdSpecs(seed uint64) []scenario.Spec {
	r := newRand(seed, "fork-crowd")
	out := make([]scenario.Spec, 4)
	for i := range out {
		out[i] = crowdSpec(r, fmt.Sprintf("fork-crowd-%d-%d", seed, i), 7, 3)
		out[i].Sweep[0].Values = []float64{33, 36, 39}
	}
	return out
}

// sweepLongSpecs is the exp1 shape — hop intervals 25–150 on the
// historical two-device world with the default 120 s budget — with a
// seeded seed-layout offset so every seed draws other trials.
func sweepLongSpecs(seed uint64) []scenario.Spec {
	r := newRand(seed, "sweep-long")
	return []scenario.Spec{{
		Version: scenario.Version,
		Name:    fmt.Sprintf("sweep-long-%d", seed),
		Seed:    &scenario.SeedLayout{Offset: uint64(r.IntN(1 << 20))},
		Sweep:   []scenario.Axis{{Field: "conn.interval", Values: []float64{25, 50, 75, 100, 125, 150}}},
	}}
}

// daemonSpecs are daemon-mix's distinct specs: small crowded worlds (4–5
// devices, one interval point), each a cache miss on first submission.
func daemonSpecs(seed uint64, n int) []scenario.Spec {
	r := newRand(seed, "daemon-mix")
	out := make([]scenario.Spec, n)
	for i := range out {
		out[i] = crowdSpec(r, fmt.Sprintf("daemon-mix-%d-%d", seed, i), 4+r.IntN(2), 1)
	}
	return out
}

// fabricSpecs are fabric-shard's distinct specs: four interval points on
// a three-device world, fresh trials, each sharded across the fleet.
func fabricSpecs(seed uint64, n int) []scenario.Spec {
	r := newRand(seed, "fabric-shard")
	out := make([]scenario.Spec, n)
	for i := range out {
		out[i] = crowdSpec(r, fmt.Sprintf("fabric-shard-%d-%d", seed, i), 3, 4)
	}
	return out
}

// encodeSpecs renders specs to the JSON bytes the program decodes.
func encodeSpecs(specs []scenario.Spec) ([][]byte, error) {
	out := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, fmt.Errorf("encoding spec %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}
