package fabric

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/obs"
	"injectable/internal/serve"
)

// serialBinaryStream is serialStream in the binary trial-record format.
func serialBinaryStream(t *testing.T) []byte {
	t.Helper()
	cspec, err := serve.DefaultRegistry().Build(refSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runner := campaign.Runner{Workers: 1, Sinks: []campaign.Sink{campaign.NewBinary(&buf)}}
	if _, err := runner.Run(cspec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFabricBinaryOutput runs the fleet with binary merged output: the
// bytes must be identical to a single-process binary run, and transcode
// to exactly the NDJSON the default output would have produced.
func TestFabricBinaryOutput(t *testing.T) {
	wantBin := serialBinaryStream(t)
	wantND := serialStream(t)
	var merged bytes.Buffer
	rep, err := Run(context.Background(), Config{
		Workers: startWorkers(t, 2),
		Hub:     obs.NewHub(),
		Format:  serve.FormatBinary,
	}, plan(t, 0), &merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), wantBin) {
		t.Fatal("binary merged stream differs from a single-process binary run")
	}
	if rep.Bytes != int64(merged.Len()) {
		t.Fatalf("report bytes %d, merged %d", rep.Bytes, merged.Len())
	}
	var nd bytes.Buffer
	if err := campaign.TranscodeBinaryToNDJSON(&nd, merged.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nd.Bytes(), wantND) {
		t.Fatal("transcoded binary merge differs from the NDJSON reference")
	}
}

// TestFabricRejectsUnknownFormat pins the config validation.
func TestFabricRejectsUnknownFormat(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Workers: []string{"http://127.0.0.1:1"},
		Format:  "csv",
	}, plan(t, 0), &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestSplitBinaryShard pins the frame validation binary dispatch rests
// on: tallies extracted without decoding records, trial-count mismatch
// and torn streams rejected.
func TestSplitBinaryShard(t *testing.T) {
	recs := []campaign.Record{
		{Point: "a", Trial: 0, Seed: 1, OK: true},
		{Point: "a", Trial: 1, Seed: 2, Err: "boom"},
	}
	stream := campaign.EncodeBinary(
		campaign.StreamInfo{Name: "x", SeedBase: 1, Points: 1, Trials: 2},
		recs, campaign.StreamTallies{Trials: 2, OK: 1, Failed: 1})

	payload, ok, failed, err := splitBinaryShard(stream, 2)
	if err != nil || ok != 1 || failed != 1 {
		t.Fatalf("split = ok %d, failed %d, err %v", ok, failed, err)
	}
	wantPayload := campaign.AppendBinaryRecord(nil, recs[0])
	wantPayload = campaign.AppendBinaryRecord(wantPayload, recs[1])
	if !bytes.Equal(payload, wantPayload) {
		t.Fatal("payload is not the raw result-frame region")
	}
	if _, _, _, err := splitBinaryShard(stream, 3); err == nil {
		t.Fatal("trial-count mismatch accepted")
	}
	if _, _, _, err := splitBinaryShard(stream[:len(stream)-2], 2); err == nil {
		t.Fatal("torn stream accepted")
	}
	if _, _, _, err := splitBinaryShard([]byte(`{"kind":"campaign"}`+"\n"), 0); err == nil {
		t.Fatal("NDJSON stream accepted as binary")
	}
}

// TestOpenJournalRejectsOldFormat pins the retirement of the pre-codec
// journal format: a checkpoint stamped "IFJ1" — whose bodies could be
// NDJSON result lines — fails with ErrJournalVersion instead of being
// upgraded or resumed from, and the file is left as it was.
func TestOpenJournalRejectsOldFormat(t *testing.T) {
	old, err := AppendShardRecord([]byte("IFJ1"), ShardRecord{
		Key: "deadbeef", Index: 0, OK: 1, Body: []byte(`{"kind":"result"}` + "\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shards.journal")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path)
	if j != nil || recs != nil || !errors.Is(err, ErrJournalVersion) || errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("OpenJournal(IFJ1) = %v, %v, %v; want ErrJournalVersion", j, recs, err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
		t.Fatal("rejected journal was modified")
	}
}

// withUnknownFlag returns stream with its first result frame's flags
// byte given a bit the codec does not define, CRC re-sealed: a frame
// only a reader that decodes the payload can reject.
func withUnknownFlag(stream []byte) (bad, frame []byte, err error) {
	info, recs, tallies, err := campaign.DecodeBinary(stream)
	if err != nil || len(recs) == 0 {
		return nil, nil, fmt.Errorf("worker stream holds %d records: %v", len(recs), err)
	}
	first := recs[0]
	if first.Trial >= 1<<7 || len(first.Point) >= 1<<7 {
		return nil, nil, errors.New("record needs multi-byte uvarints")
	}
	frame = campaign.AppendBinaryRecord(nil, first)
	payload := frame[2 : len(frame)-4]      // type and one-byte length; CRC
	payload[1+len(first.Point)+1+8] |= 0x20 // past label, trial and seed
	table := crc32.MakeTable(crc32.Castagnoli)
	crc := crc32.Update(crc32.Checksum(frame[:1], table), table, payload)
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc)

	bad = campaign.BinaryHeader(info.Name, info.SeedBase, info.Points, info.Trials)
	bad = append(bad, frame...)
	for _, rec := range recs[1:] {
		bad = campaign.AppendBinaryRecord(bad, rec)
	}
	return append(bad, campaign.BinaryTrailer(tallies.Trials, tallies.OK, tallies.Failed)...), frame, nil
}

// TestFabricRedispatchesUndecodableShard: a worker whose first shard
// stream holds a CRC-valid frame that does not decode has that shard
// redispatched; the frame never reaches the journal or the merge.
func TestFabricRedispatchesUndecodableShard(t *testing.T) {
	want := serialStream(t)
	srv := serve.NewServer(serve.Config{QueueCap: 32, JobWorkers: 1, TrialWorkers: 2})
	t.Cleanup(srv.Close)
	var badFrame atomic.Pointer[[]byte]
	var served atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			srv.Handler().ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		bad, frame, err := withUnknownFlag(rec.Body.Bytes())
		if err != nil {
			t.Error(err)
			return
		}
		badFrame.Store(&frame)
		w.Header().Set("Content-Type", serve.BinaryContentType)
		w.Write(bad)
	}))
	t.Cleanup(hs.Close)

	path := filepath.Join(t.TempDir(), "shards.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	rep, err := Run(context.Background(), Config{
		Workers: []string{hs.URL},
		Journal: j,
	}, plan(t, 0), &merged)
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retried != 1 || rep.Dispatched != 7 {
		t.Fatalf("report %+v, want 1 redispatch of 7 dispatches", rep)
	}
	if !bytes.Equal(merged.Bytes(), want) {
		t.Fatal("merged stream differs from serial run")
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if frame := badFrame.Load(); frame == nil || bytes.Contains(journal, *frame) {
		t.Fatal("the undecodable frame reached the journal")
	}
}
