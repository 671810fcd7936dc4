package fabric

import (
	"fmt"

	"injectable/internal/campaign"
)

// splitBinaryShard validates one worker's binary stream for a shard —
// every frame's CRC and every record, through campaign.SplitBinaryStream
// — strips the header and end frames, and checks the trailer's trial
// count against the shard (a cancelled worker yields a torn stream,
// which the walk rejects — a redispatch, never a silently short merge).
// The returned payload aliases stream and is raw result frames the
// merger concatenates without re-encoding a single record.
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
