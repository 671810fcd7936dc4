package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/obs"
)

// layerMetrics are the traced run's per-layer metrics, printed on every
// workload; a layer the workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"scenario.decode_us", "us"},
	{"scenario.compile_us", "us"},
	{"experiments.warm_ms_p50", "ms"},
	{"experiments.warmups", "count"},
	{"host.snapshot_us", "us"},
	{"host.fork_us", "us"},
	{"host.rekey_us", "us"},
	{"sim.events_per_host_ms", "1/ms"},
	{"sim.sim_s_per_host_s", "s/s"},
	{"medium.tx_frames_per_trial", "count"},
	{"medium.rx_delivered_per_trial", "count"},
	{"medium.collisions_per_trial", "count"},
	{"link.events_per_trial", "count"},
	{"link.missed_event_ratio", "ratio"},
	{"inject.attempts_per_trial", "count"},
	{"inject.hit_ratio", "ratio"},
	{"campaign.utilization", "ratio"},
	{"campaign.decode_us_per_kb", "us/KB"},
	{"campaign.transcode_us_per_kb", "us/KB"},
	{"campaign.stream_kb_per_trial", "KB"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.hit_wall_share", "ratio"},
	{"serve.hit_cpu_share", "ratio"},
	{"serve.joins", "count"},
	{"serve.rejects_429", "count"},
	{"serve.stream_kb_per_job", "KB"},
	{"fabric.plan_us", "us"},
	{"fabric.shard_ms_p50", "ms"},
	{"fabric.shards_dispatched", "count"},
	{"fabric.redispatches", "count"},
	{"fabric.merge_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// injections tallies the injectable layer's outcome over result streams:
// the trial values' attempt counts and successes.
type injections struct {
	trials, attempts, hits int
}

func (i injections) attemptsPerTrial() float64 { return float64(i.attempts) / float64(i.trials) }

// hitRatio is successful injections per injection attempt.
func (i injections) hitRatio() float64 { return float64(i.hits) / float64(i.attempts) }

func injectStats(streams [][]byte) (injections, error) {
	var inj injections
	for _, s := range streams {
		_, _, err := campaign.ScanBinary(s, func(rec campaign.Record) error {
			if !rec.OK {
				return nil // failed trials are counted as failed ops
			}
			var v struct {
				Success  bool
				Attempts int
			}
			if err := json.Unmarshal(rec.Value, &v); err != nil {
				return fmt.Errorf("trial %s/%d value: %w", rec.Point, rec.Trial, err)
			}
			inj.trials++
			inj.attempts += v.Attempts
			if v.Success {
				inj.hits++
			}
			return nil
		})
		if err != nil {
			return inj, err
		}
	}
	if inj.trials == 0 || inj.attempts == 0 {
		return inj, fmt.Errorf("result streams hold %d trials with %d injection attempts", inj.trials, inj.attempts)
	}
	return inj, nil
}

// firstError is the error of the first failed trial in a stream.
func firstError(stream []byte) string {
	msg := "none recorded"
	_, _, _ = campaign.ScanBinary(stream, func(rec campaign.Record) error {
		if !rec.OK {
			msg = fmt.Sprintf("point %s trial %d: %s", rec.Point, rec.Trial, rec.Err)
			return errStop
		}
		return nil
	})
	return msg
}

var errStop = errors.New("stop")

// codecLayer times the campaign codec on the streams the traced rounds
// produced or received: full decode and binary→NDJSON transcode, per KB.
func codecLayer(traced []*round, m map[string]float64) {
	var decode, transcode, kbPerTrial []float64
	for _, r := range traced {
		var dec, tc time.Duration
		var kb float64
		trials := 0
		for _, s := range r.streams {
			start := time.Now()
			_, recs, _, err := campaign.DecodeBinary(s)
			dec += time.Since(start)
			if err != nil {
				continue // the round's checks report corrupt streams
			}
			start = time.Now()
			_ = campaign.TranscodeBinaryToNDJSON(io.Discard, s) // decoded above, cannot fail here
			tc += time.Since(start)
			kb += float64(len(s)) / 1024
			trials += len(recs)
		}
		if kb == 0 || trials == 0 {
			continue
		}
		decode = append(decode, us(dec)/kb)
		transcode = append(transcode, us(tc)/kb)
		kbPerTrial = append(kbPerTrial, kb/float64(trials))
	}
	m["campaign.decode_us_per_kb"] = median(decode)
	m["campaign.transcode_us_per_kb"] = median(transcode)
	m["campaign.stream_kb_per_trial"] = median(kbPerTrial)
	if len(traced) > 0 {
		if inj, err := injectStats(traced[0].streams); err == nil {
			m["inject.attempts_per_trial"] = inj.attemptsPerTrial()
			m["inject.hit_ratio"] = inj.hitRatio()
		}
	}
}

// counter reads a counter from a metrics snapshot (0 when absent).
func counter(s *obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// histogram reads a histogram from a metrics snapshot.
func histogram(s *obs.Snapshot, name string) (obs.HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return obs.HistogramSnapshot{}, false
}
