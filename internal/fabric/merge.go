package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"

	"injectable/internal/campaign"
)

// shardFrame is the subset of the per-shard NDJSON frame lines the
// coordinator inspects before trusting a worker's stream.
type shardFrame struct {
	Kind   string `json:"kind"`
	Trials int    `json:"trials"`
	Ok     int    `json:"ok"`
	Failed int    `json:"failed"`
}

// splitShardStream validates one worker's NDJSON stream for a shard and
// strips its frame: the first line must be a "campaign" header, the last
// a complete "end" trailer whose trial count matches the shard (a
// cancelled or torn stream is a prefix and fails here, turning into a
// redispatch instead of a silently short merge). It returns the payload
// — the result lines between the frame — plus the trailer tallies.
func splitShardStream(stream []byte, wantTrials int) (payload []byte, ok, failed int, err error) {
	head := bytes.IndexByte(stream, '\n')
	if head < 0 {
		return nil, 0, 0, fmt.Errorf("fabric: shard stream has no header line (%d bytes)", len(stream))
	}
	var hdr shardFrame
	if jerr := json.Unmarshal(stream[:head], &hdr); jerr != nil || hdr.Kind != "campaign" {
		return nil, 0, 0, fmt.Errorf("fabric: shard stream does not open with a campaign header: %.80q", stream[:head])
	}
	if stream[len(stream)-1] != '\n' {
		return nil, 0, 0, fmt.Errorf("fabric: shard stream ends mid-line (torn worker stream)")
	}
	tail := bytes.LastIndexByte(stream[:len(stream)-1], '\n')
	if tail < head {
		return nil, 0, 0, fmt.Errorf("fabric: shard stream has no trailer line")
	}
	var end shardFrame
	if jerr := json.Unmarshal(stream[tail+1:], &end); jerr != nil || end.Kind != "end" {
		return nil, 0, 0, fmt.Errorf("fabric: shard stream does not close with an end trailer: %.80q", stream[tail+1:])
	}
	if end.Trials != wantTrials {
		return nil, 0, 0, fmt.Errorf("fabric: shard stream holds %d trials, want %d (worker cancelled mid-shard?)",
			end.Trials, wantTrials)
	}
	return stream[head+1 : tail+1], end.Ok, end.Failed, nil
}

// splitBinaryShard is splitShardStream for the binary trial-record
// format workers now stream: it CRC-validates the frame walk, strips
// the header and end frames, and checks the trailer's trial count
// against the shard (a cancelled worker yields a torn stream, which the
// frame walk rejects — a redispatch, never a silently short merge). The
// returned payload aliases stream and is raw result frames the merger
// concatenates without decoding a single record.
func splitBinaryShard(stream []byte, wantTrials int) (payload []byte, ok, failed int, err error) {
	_, payload, tallies, err := campaign.SplitBinaryStream(stream)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("fabric: shard stream rejected: %w", err)
	}
	if tallies.Trials != wantTrials {
		return nil, 0, 0, fmt.Errorf("fabric: shard stream holds %d trials, want %d (worker cancelled mid-shard?)",
			tallies.Trials, wantTrials)
	}
	return payload, tallies.OK, tallies.Failed, nil
}
