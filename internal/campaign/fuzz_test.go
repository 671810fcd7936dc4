package campaign

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeTrialRecord hammers the binary trial-stream decoder, the
// same way FuzzDecodeShardJournal hammers the checkpoint decoder.
// Properties:
//
//   - it never panics, whatever bytes arrive off the wire;
//   - any stream it accepts re-encodes to the identical bytes
//     (decode∘encode is the identity — the canonical-encoding checks
//     exist for exactly this);
//   - SplitBinaryStream agrees with the full decode on every accepted
//     stream;
//   - the NDJSON writer, fed the whole input or one byte at a time,
//     accepts exactly when the full decode does, and renders the decoded
//     records line by line;
//   - every rejection is ErrBinaryCorrupt — truncation included, since a
//     result stream has no tolerated torn tail.
func FuzzDecodeTrialRecord(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(binaryMagic))
	f.Add([]byte("NOPE"))
	f.Add(append([]byte(binaryMagic), BinaryVersion))
	empty := append(BinaryHeader("c", 1, 0, 0), BinaryTrailer(0, 0, 0)...)
	f.Add(empty)
	one := BinaryHeader("camp", 42, 1, 1)
	one = AppendBinaryRecord(one, Record{
		Point: "p0", Trial: 0, Seed: 99, OK: true,
		Value: []byte(`{"success":true,"attempts":2}`),
	})
	one = append(one, BinaryTrailer(1, 1, 0)...)
	f.Add(one)
	f.Add(one[:len(one)-5]) // truncated tail
	flipped := append([]byte(nil), one...)
	flipped[len(flipped)-1] ^= 0x01 // corrupt trailer CRC
	f.Add(flipped)
	failed := BinaryHeader("camp", 42, 1, 2)
	failed = AppendBinaryRecord(failed, Record{
		Point: "p0", Trial: 0, Seed: 7, Err: "missed", Panicked: true,
	})
	failed = AppendBinaryRecord(failed, Record{
		Point: "p0", Trial: 1, Seed: 8, Err: "deadline", TimedOut: true,
	})
	failed = append(failed, BinaryTrailer(2, 0, 2)...)
	f.Add(failed)

	f.Fuzz(func(t *testing.T, data []byte) {
		info, recs, tallies, err := DecodeBinary(data)
		whole, werr := writeChunks(data, max(len(data), 1))
		bytewise, berr := writeChunks(data, 1)
		if err != nil {
			if !errors.Is(err, ErrBinaryCorrupt) {
				t.Fatalf("decode error is not ErrBinaryCorrupt: %v", err)
			}
			if _, _, _, serr := SplitBinaryStream(data); serr == nil {
				t.Fatalf("decode rejected but split accepted")
			}
			if !errors.Is(werr, ErrBinaryCorrupt) || !errors.Is(berr, ErrBinaryCorrupt) {
				t.Fatalf("decode rejected but the NDJSON writer says %v (whole), %v (1-byte)", werr, berr)
			}
			return
		}
		if werr != nil || berr != nil {
			t.Fatalf("decode accepted but the NDJSON writer says %v (whole), %v (1-byte)", werr, berr)
		}
		want := NDJSONHeader(info.Name, info.SeedBase, info.Points, info.Trials)
		for _, rec := range recs {
			if want, err = rec.AppendNDJSONLine(want); err != nil {
				t.Fatalf("rendering a decoded record: %v", err)
			}
		}
		want = append(want, NDJSONTrailer(tallies.Trials, tallies.OK, tallies.Failed)...)
		if !bytes.Equal(whole, want) || !bytes.Equal(bytewise, want) {
			t.Fatalf("NDJSON writer output differs from the decoded records rendered line by line")
		}
		if !bytes.Equal(EncodeBinary(info, recs, tallies), data) {
			t.Fatalf("accepted stream does not re-encode to itself")
		}
		sinfo, payload, stallies, serr := SplitBinaryStream(data)
		if serr != nil {
			t.Fatalf("decode accepted but split rejected: %v", serr)
		}
		if sinfo != info || stallies != tallies {
			t.Fatalf("split disagrees with decode: %+v/%+v vs %+v/%+v",
				sinfo, stallies, info, tallies)
		}
		reassembled := BinaryHeader(info.Name, info.SeedBase, info.Points, info.Trials)
		reassembled = append(reassembled, payload...)
		reassembled = append(reassembled, BinaryTrailer(tallies.Trials, tallies.OK, tallies.Failed)...)
		if !bytes.Equal(reassembled, data) {
			t.Fatalf("split parts do not reassemble the stream")
		}
	})
}
