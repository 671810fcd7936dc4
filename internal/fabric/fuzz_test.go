package fabric

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeShardJournal hammers the checkpoint decoder. Properties:
//
//   - it never panics, whatever bytes a crashed or hostile node left on
//     disk;
//   - any records it does return re-encode to a byte-exact prefix of the
//     input — the invariant OpenJournal's torn-tail truncation rests on;
//   - re-decoding that re-encoded prefix is lossless;
//   - an error is always ErrJournalCorrupt or, for an older format's
//     magic, ErrJournalVersion (torn tails are not errors).
func FuzzDecodeShardJournal(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(journalMagic))
	f.Add([]byte("NOPE"))
	f.Add([]byte(journalMagic + "\x00\x00\x00"))
	one, _ := AppendShardRecord([]byte(journalMagic), ShardRecord{
		Key: "deadbeef", Index: 1, OK: 3, Failed: 1, Body: []byte("{\"kind\":\"result\"}\n"),
	})
	f.Add(one)
	f.Add(one[:len(one)-5])                                          // torn tail
	f.Add(append(append([]byte(nil), one...), one[4:len(one)-3]...)) // second record torn
	flipped := append([]byte(nil), one...)
	flipped[len(flipped)-1] ^= 0x01 // corrupt digest
	f.Add(flipped)
	f.Add(append([]byte("IFJ1"), one[len(journalMagic):]...)) // older format

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeShardJournal(data)
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) && !errors.Is(err, ErrJournalVersion) {
				t.Fatalf("decode error is neither ErrJournalCorrupt nor ErrJournalVersion: %v", err)
			}
			return
		}
		if len(recs) == 0 {
			return
		}
		reenc := []byte(journalMagic)
		for _, rec := range recs {
			var aerr error
			reenc, aerr = AppendShardRecord(reenc, rec)
			if aerr != nil {
				t.Fatalf("decoded record does not re-encode: %v (%+v)", aerr, rec)
			}
		}
		if len(reenc) > len(data) || !bytes.Equal(reenc, data[:len(reenc)]) {
			t.Fatalf("re-encoded records are not a prefix of the input:\nin  %x\nout %x", data, reenc)
		}
		recs2, err2 := DecodeShardJournal(reenc)
		if err2 != nil {
			t.Fatalf("re-encoded journal rejected: %v", err2)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip changed record count: %d vs %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs2[i].Key != recs[i].Key || recs2[i].Index != recs[i].Index ||
				recs2[i].OK != recs[i].OK || recs2[i].Failed != recs[i].Failed ||
				!bytes.Equal(recs2[i].Body, recs[i].Body) {
				t.Fatalf("round trip changed record %d:\ngot  %+v\nwant %+v", i, recs2[i], recs[i])
			}
		}
	})
}
