package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary trial-record codec.
//
// This is the one internal results format: a length-prefixed,
// versioned, CRC-sealed binary stream carrying the deterministic fields
// of every trial, in the repo's hand-rolled bit-exact codec style (fixed
// magic, uvarint/fixed fields, per-record CRC). NDJSON is an edge
// rendering of it: one walker reads every binary stream (ScanBinary,
// SplitBinaryStream, DecodeBinary and the NDJSON writer all go through
// it, so they accept the same streams), and one writer renders it as
// the exact bytes the NDJSON sink writes. The two formats are a lossless
// bijection through Record, so the serving layer runs a campaign once
// into binary, caches the slab and renders NDJSON only for clients that
// ask for it, and the fabric merges shards by concatenating validated
// result frames.
//
// Stream layout:
//
//	magic "IBTR" | version byte 0x01 | frame*
//
// with exactly one header frame first, zero or more result frames, and
// exactly one end frame last. Each frame is
//
//	type byte | uvarint payloadLen | payload | u32 LE CRC-32C(type|payload)
//
// Payloads (all uvarints minimally encoded — the decoder rejects
// non-canonical encodings so decode∘encode is the identity):
//
//	header 'C': uvarint nameLen | name | u64 LE seedBase | uvarint points | uvarint trials
//	result 'R': uvarint pointLen | point | uvarint trial | u64 LE seed |
//	            flags byte | (uvarint errLen | err)? | (uvarint valueLen | value)?
//	end    'E': uvarint trials | uvarint ok | uvarint failed
//
// Flags: bit0 OK, bit1 panicked, bit2 timed-out, bit3 err present,
// bit4 value present; no other bit may be set. The err/value sections
// appear only when their flag is set, and never with zero length; a
// value must be JSON, because the NDJSON line embeds it.
const (
	binaryMagic = "IBTR"
	// BinaryVersion is the codec version byte following the magic.
	BinaryVersion = 0x01

	frameHeader = 'C'
	frameResult = 'R'
	frameEnd    = 'E'

	flagOK       = 1 << 0
	flagPanicked = 1 << 1
	flagTimedOut = 1 << 2
	flagErr      = 1 << 3
	flagValue    = 1 << 4
	flagsKnown   = flagOK | flagPanicked | flagTimedOut | flagErr | flagValue

	// maxBinaryLabel bounds point/campaign label lengths; maxBinaryBlob
	// bounds err/value payloads. Both are sanity rails against hostile
	// length prefixes, far above anything a real campaign emits.
	maxBinaryLabel = 1 << 12
	maxBinaryBlob  = 1 << 28
)

// ErrBinaryCorrupt marks a binary trial stream that does not decode:
// truncation, a failed CRC, a non-canonical encoding or broken framing.
// Unlike the shard journal there is no tolerated torn tail — a result
// stream is complete or it is corrupt.
var ErrBinaryCorrupt = errors.New("campaign: binary trial stream corrupt")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// StreamInfo is the identity a stream header carries — the same fields
// as the NDJSON "campaign" line.
type StreamInfo struct {
	Name     string
	SeedBase uint64
	Points   int
	Trials   int
}

// StreamTallies is the end frame's deterministic tallies — the same
// fields as the NDJSON "end" line.
type StreamTallies struct {
	Trials int
	OK     int
	Failed int
}

// appendFrame seals one frame: type, length prefix, payload, CRC-32C.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Update(crc32.Checksum([]byte{typ}, crcTable), crcTable, payload)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// BinaryHeader renders the stream prologue — magic, version and the
// header frame — exactly as the Binary sink writes it for a campaign
// with this identity. The fabric merger uses it to stamp one global
// header over many merged shard payloads, mirroring NDJSONHeader.
func BinaryHeader(name string, seedBase uint64, points, totalTrials int) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(name)))
	payload = append(payload, name...)
	payload = binary.LittleEndian.AppendUint64(payload, seedBase)
	payload = binary.AppendUvarint(payload, uint64(points))
	payload = binary.AppendUvarint(payload, uint64(totalTrials))
	dst := append([]byte(binaryMagic), BinaryVersion)
	return appendFrame(dst, frameHeader, payload)
}

// BinaryTrailer renders the end frame for these tallies, mirroring
// NDJSONTrailer.
func BinaryTrailer(trials, ok, failed int) []byte {
	payload := binary.AppendUvarint(nil, uint64(trials))
	payload = binary.AppendUvarint(payload, uint64(ok))
	payload = binary.AppendUvarint(payload, uint64(failed))
	return appendFrame(nil, frameEnd, payload)
}

// AppendBinaryRecord appends one sealed result frame for rec.
func AppendBinaryRecord(dst []byte, rec Record) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(rec.Point)))
	payload = append(payload, rec.Point...)
	payload = binary.AppendUvarint(payload, uint64(rec.Trial))
	payload = binary.LittleEndian.AppendUint64(payload, rec.Seed)
	flags := byte(0)
	if rec.OK {
		flags |= flagOK
	}
	if rec.Panicked {
		flags |= flagPanicked
	}
	if rec.TimedOut {
		flags |= flagTimedOut
	}
	if rec.Err != "" {
		flags |= flagErr
	}
	if len(rec.Value) > 0 {
		flags |= flagValue
	}
	payload = append(payload, flags)
	if rec.Err != "" {
		payload = binary.AppendUvarint(payload, uint64(len(rec.Err)))
		payload = append(payload, rec.Err...)
	}
	if len(rec.Value) > 0 {
		payload = binary.AppendUvarint(payload, uint64(len(rec.Value)))
		payload = append(payload, rec.Value...)
	}
	return appendFrame(dst, frameResult, payload)
}

// Binary is a Sink writing the deterministic binary stream to w. Like
// NDJSON it carries only deterministic fields, so the emitted bytes are
// identical at any worker count; the serving layer caches these slabs
// and replays them zero-copy.
type Binary struct {
	w   io.Writer
	err error
	buf []byte
	ok  int
	bad int
}

// NewBinary returns a sink writing the binary stream to w.
func NewBinary(w io.Writer) *Binary { return &Binary{w: w} }

// Err returns the first write error, if any (the stream is telemetry;
// it never fails the campaign).
func (b *Binary) Err() error { return b.err }

func (b *Binary) write(p []byte) {
	if b.err == nil {
		_, b.err = b.w.Write(p)
	}
}

// Start implements Sink.
func (b *Binary) Start(spec *Spec, totalTrials int) {
	b.ok, b.bad = 0, 0
	b.write(BinaryHeader(spec.Name, spec.SeedBase, len(spec.Points), totalTrials))
}

// Result implements Sink.
func (b *Binary) Result(r Result) {
	if r.Err == nil {
		b.ok++
	} else {
		b.bad++
	}
	b.buf = AppendBinaryRecord(b.buf[:0], NewRecord(r))
	b.write(b.buf)
}

// Finish implements Sink.
func (b *Binary) Finish(Metrics) {
	b.write(BinaryTrailer(b.ok+b.bad, b.ok, b.bad))
}

// corrupt builds an ErrBinaryCorrupt-wrapped error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBinaryCorrupt, fmt.Sprintf(format, args...))
}

// errShortFrame reports that a frame is incomplete at the end of the
// buffer: the walker waits for more bytes, and a stream that ends there
// is ErrBinaryCorrupt.
var errShortFrame = errors.New("campaign: incomplete binary frame")

// parseUvarint decodes a minimally-encoded uvarint. Non-minimal
// encodings are rejected so every accepted stream re-encodes to the
// identical bytes.
func parseUvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n == 0 {
		return 0, 0, errShortFrame
	}
	if n < 0 {
		return 0, 0, corrupt("overlong uvarint")
	}
	if n > 1 && v < 1<<(7*(n-1)) {
		return 0, 0, corrupt("non-canonical uvarint encoding")
	}
	return v, n, nil
}

// readUvarint is parseUvarint over a buffer known to be complete: a
// short read is corruption.
func readUvarint(b []byte) (uint64, int, error) {
	v, n, err := parseUvarint(b)
	if errors.Is(err, errShortFrame) {
		return 0, 0, corrupt("truncated uvarint")
	}
	return v, n, err
}

// parseFrame parses one frame at the head of b, verifying its CRC, and
// returns the frame type, its payload (aliasing b) and the total bytes
// consumed. A frame that extends past the end of b yields errShortFrame.
func parseFrame(b []byte) (typ byte, payload []byte, consumed int, err error) {
	if len(b) < 1 {
		return 0, nil, 0, errShortFrame
	}
	typ = b[0]
	size, n, err := parseUvarint(b[1:])
	if err != nil {
		return 0, nil, 0, err
	}
	head := 1 + n
	if size > maxBinaryBlob {
		return 0, nil, 0, corrupt("frame payload %d bytes exceeds %d", size, maxBinaryBlob)
	}
	if uint64(len(b)-head) < size+4 {
		return 0, nil, 0, errShortFrame
	}
	payload = b[head : head+int(size)]
	want := binary.LittleEndian.Uint32(b[head+int(size):])
	got := crc32.Update(crc32.Checksum([]byte{typ}, crcTable), crcTable, payload)
	if got != want {
		return 0, nil, 0, corrupt("frame CRC mismatch (type %q)", typ)
	}
	return typ, payload, head + int(size) + 4, nil
}

// decodeHeaderPayload parses a header frame's payload.
func decodeHeaderPayload(p []byte) (StreamInfo, error) {
	var info StreamInfo
	nameLen, n, err := readUvarint(p)
	if err != nil {
		return info, err
	}
	p = p[n:]
	if nameLen > maxBinaryLabel || uint64(len(p)) < nameLen {
		return info, corrupt("header name length %d out of range", nameLen)
	}
	info.Name = string(p[:nameLen])
	p = p[nameLen:]
	if len(p) < 8 {
		return info, corrupt("header truncated at seed base")
	}
	info.SeedBase = binary.LittleEndian.Uint64(p)
	p = p[8:]
	points, n, err := readUvarint(p)
	if err != nil {
		return info, err
	}
	p = p[n:]
	trials, n, err := readUvarint(p)
	if err != nil {
		return info, err
	}
	p = p[n:]
	if len(p) != 0 {
		return info, corrupt("%d trailing bytes in header frame", len(p))
	}
	if points > maxBinaryBlob || trials > maxBinaryBlob {
		return info, corrupt("header counts out of range (points %d, trials %d)", points, trials)
	}
	info.Points, info.Trials = int(points), int(trials)
	return info, nil
}

// decodeEndPayload parses an end frame's payload.
func decodeEndPayload(p []byte) (StreamTallies, error) {
	var t StreamTallies
	fields := [3]*int{&t.Trials, &t.OK, &t.Failed}
	for _, f := range fields {
		v, n, err := readUvarint(p)
		if err != nil {
			return t, err
		}
		if v > maxBinaryBlob {
			return t, corrupt("end tally %d out of range", v)
		}
		*f = int(v)
		p = p[n:]
	}
	if len(p) != 0 {
		return t, corrupt("%d trailing bytes in end frame", len(p))
	}
	return t, nil
}

// decodeResultPayload parses a result frame's payload. The record's
// Point is interned against prev, the previous record's label, when the
// label repeats (results arrive point-major, so runs of identical
// labels are the common case), and its Value aliases the payload —
// callers that retain records across calls must copy.
func decodeResultPayload(p []byte, prev string) (Record, error) {
	var rec Record
	pointLen, n, err := readUvarint(p)
	if err != nil {
		return rec, err
	}
	p = p[n:]
	if pointLen > maxBinaryLabel || uint64(len(p)) < pointLen {
		return rec, corrupt("result point length %d out of range", pointLen)
	}
	point := p[:pointLen]
	if prev != "" && prev == string(point) {
		rec.Point = prev
	} else {
		rec.Point = string(point)
	}
	p = p[pointLen:]
	trial, n, err := readUvarint(p)
	if err != nil {
		return rec, err
	}
	if trial > maxBinaryBlob {
		return rec, corrupt("result trial index %d out of range", trial)
	}
	rec.Trial = int(trial)
	p = p[n:]
	if len(p) < 8 {
		return rec, corrupt("result truncated at seed")
	}
	rec.Seed = binary.LittleEndian.Uint64(p)
	p = p[8:]
	if len(p) < 1 {
		return rec, corrupt("result truncated at flags")
	}
	flags := p[0]
	p = p[1:]
	if flags&^byte(flagsKnown) != 0 {
		return rec, corrupt("unknown result flags %#x", flags)
	}
	rec.OK = flags&flagOK != 0
	rec.Panicked = flags&flagPanicked != 0
	rec.TimedOut = flags&flagTimedOut != 0
	if flags&flagErr != 0 {
		errLen, n, err := readUvarint(p)
		if err != nil {
			return rec, err
		}
		p = p[n:]
		if errLen == 0 || errLen > maxBinaryBlob || uint64(len(p)) < errLen {
			return rec, corrupt("result error length %d out of range", errLen)
		}
		rec.Err = string(p[:errLen])
		p = p[errLen:]
	}
	if flags&flagValue != 0 {
		valLen, n, err := readUvarint(p)
		if err != nil {
			return rec, err
		}
		p = p[n:]
		if valLen == 0 || valLen > maxBinaryBlob || uint64(len(p)) < valLen {
			return rec, corrupt("result value length %d out of range", valLen)
		}
		if !json.Valid(p[:valLen]) {
			return rec, corrupt("result value is not JSON")
		}
		rec.Value = p[:valLen]
		p = p[valLen:]
	}
	if len(p) != 0 {
		return rec, corrupt("%d trailing bytes in result frame", len(p))
	}
	return rec, nil
}

// checkMagic validates the stream prologue at the head of b.
func checkMagic(b []byte) error {
	if string(b[:len(binaryMagic)]) != binaryMagic {
		return corrupt("bad magic %q", b[:len(binaryMagic)])
	}
	if v := b[len(binaryMagic)]; v != BinaryVersion {
		return corrupt("unsupported version %d", v)
	}
	return nil
}

// Walker stages, in the one order a stream may take.
const (
	stageMagic   = iota // magic and version byte
	stageHeader         // the header frame
	stageResults        // result frames, until the end frame
	stageDone           // nothing may follow the end frame
)

// walker is the one reader of the binary stream format. ScanBinary,
// SplitBinaryStream, DecodeBinary and the NDJSON writer all feed it, so
// every one of them accepts exactly the same streams. It takes the
// stream in chunks of any size, enforces magic → header → results → end
// → nothing, and decodes every frame's payload, result records
// included.
type walker struct {
	stage int
	// off counts the stream bytes consumed so far; results is the
	// result-frame region as stream offsets [start, end).
	off     int
	results [2]int
	info    StreamInfo
	tallies StreamTallies
	// point is the last record's label, which the next one interns.
	point string
}

// feed walks every complete frame at the head of b and returns how many
// bytes it consumed; an incomplete frame at the tail stays unconsumed
// for the caller to present again with more bytes. fn, when non-nil,
// sees each frame in stream order once its payload has decoded: typ is
// frameHeader, frameResult or frameEnd, and rec — set for result frames
// only — aliases b. An error from fn ends the walk and is returned as
// is.
func (w *walker) feed(b []byte, fn func(typ byte, rec Record) error) (int, error) {
	n := 0
	for {
		rest := b[n:]
		switch w.stage {
		case stageMagic:
			if len(rest) < len(binaryMagic)+1 {
				return n, nil
			}
			if err := checkMagic(rest); err != nil {
				return n, err
			}
			n += len(binaryMagic) + 1
			w.off += len(binaryMagic) + 1
			w.stage = stageHeader
			continue
		case stageDone:
			if len(rest) != 0 {
				return n, corrupt("%d bytes after the end frame", len(rest))
			}
			return n, nil
		}
		typ, payload, size, err := parseFrame(rest)
		if errors.Is(err, errShortFrame) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		var rec Record
		switch {
		case w.stage == stageHeader && typ == frameHeader:
			w.info, err = decodeHeaderPayload(payload)
			w.stage = stageResults
			w.results = [2]int{w.off + size, w.off + size}
		case w.stage == stageHeader:
			err = corrupt("stream does not open with a header frame (type %q)", typ)
		case typ == frameResult:
			rec, err = decodeResultPayload(payload, w.point)
			w.point = rec.Point
			w.results[1] = w.off + size
		case typ == frameEnd:
			w.tallies, err = decodeEndPayload(payload)
			w.stage = stageDone
		default:
			err = corrupt("frame type %q out of order", typ)
		}
		if err == nil && fn != nil {
			err = fn(typ, rec)
		}
		if err != nil {
			return n, err
		}
		n += size
		w.off += size
	}
}

// end reports whether the walk reached the end frame: a stream that
// stops anywhere before it is truncated.
func (w *walker) end() error {
	if w.stage != stageDone {
		return corrupt("stream ends before its end frame")
	}
	return nil
}

// walk feeds one complete stream through w.
func (w *walker) walk(stream []byte, fn func(typ byte, rec Record) error) error {
	if _, err := w.feed(stream, fn); err != nil {
		return err
	}
	return w.end()
}

// ScanBinary walks a complete binary stream, calling fn for every
// result record in order, and returns the header identity and trailer
// tallies. Record.Value (and interned Point strings) alias the stream;
// fn must copy anything it retains. Any framing, CRC or structural
// violation — including truncation — returns an error wrapping
// ErrBinaryCorrupt, with fn never called past the violation.
func ScanBinary(stream []byte, fn func(rec Record) error) (StreamInfo, StreamTallies, error) {
	var w walker
	err := w.walk(stream, func(typ byte, rec Record) error {
		if typ != frameResult || fn == nil {
			return nil
		}
		return fn(rec)
	})
	return w.info, w.tallies, err
}

// DecodeBinary fully decodes a binary stream into its records. The
// returned records own their memory (safe to retain).
func DecodeBinary(stream []byte) (StreamInfo, []Record, StreamTallies, error) {
	var recs []Record
	info, tallies, err := ScanBinary(stream, func(rec Record) error {
		if rec.Value != nil {
			rec.Value = append([]byte(nil), rec.Value...)
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return info, nil, tallies, err
	}
	return info, recs, tallies, nil
}

// EncodeBinary is DecodeBinary's inverse: it renders a complete stream
// from its parts, byte-identical to what the Binary sink would emit.
func EncodeBinary(info StreamInfo, recs []Record, tallies StreamTallies) []byte {
	out := BinaryHeader(info.Name, info.SeedBase, info.Points, info.Trials)
	for _, rec := range recs {
		out = AppendBinaryRecord(out, rec)
	}
	return append(out, BinaryTrailer(tallies.Trials, tallies.OK, tallies.Failed)...)
}

// SplitBinaryStream validates a complete stream exactly as DecodeBinary
// does and returns the header identity, the raw result-frame region
// (aliasing stream) and the trailer tallies. This is the fabric
// merger's primitive: shard payloads validate here, then merge by
// concatenation without being re-encoded.
func SplitBinaryStream(stream []byte) (StreamInfo, []byte, StreamTallies, error) {
	var w walker
	if err := w.walk(stream, nil); err != nil {
		return w.info, nil, w.tallies, err
	}
	return w.info, stream[w.results[0]:w.results[1]], w.tallies, nil
}

// ndjsonWriter renders the binary frames written to it as NDJSON lines.
type ndjsonWriter struct {
	w    io.Writer
	walk walker
	// pending holds an incomplete frame back until the next Write.
	pending []byte
	line    []byte
	err     error
}

// NewNDJSONWriter returns a writer that takes a binary trial stream, in
// chunks of any size, and writes to w the exact bytes the NDJSON sink
// would have written for the same campaign: header line, result lines,
// end line. Each line reaches w in one Write as soon as its frame is
// complete, so a subscriber tailing a live campaign sees a result as
// soon as its frame lands. A corrupt frame fails the Write that
// completes it; Close returns ErrBinaryCorrupt unless the stream
// reached its end frame. This is the repo's one NDJSON rendering of
// binary.
func NewNDJSONWriter(w io.Writer) io.WriteCloser { return &ndjsonWriter{w: w} }

// Write implements io.Writer.
func (nw *ndjsonWriter) Write(p []byte) (int, error) {
	if nw.err != nil {
		return 0, nw.err
	}
	buf := p
	if len(nw.pending) > 0 {
		nw.pending = append(nw.pending, p...)
		buf = nw.pending
	}
	n, err := nw.walk.feed(buf, nw.render)
	if err != nil {
		nw.err = err
		return 0, err
	}
	nw.pending = append(nw.pending[:0], buf[n:]...)
	return len(p), nil
}

// render writes the NDJSON line of one walked frame.
func (nw *ndjsonWriter) render(typ byte, rec Record) error {
	var line []byte
	switch typ {
	case frameHeader:
		i := nw.walk.info
		line = NDJSONHeader(i.Name, i.SeedBase, i.Points, i.Trials)
	case frameResult:
		var err error
		if nw.line, err = rec.AppendNDJSONLine(nw.line[:0]); err != nil {
			return err
		}
		line = nw.line
	case frameEnd:
		t := nw.walk.tallies
		line = NDJSONTrailer(t.Trials, t.OK, t.Failed)
	}
	_, err := nw.w.Write(line)
	return err
}

// Close implements io.Closer: it reports the first error of any Write,
// or ErrBinaryCorrupt when the stream stopped before its end frame.
func (nw *ndjsonWriter) Close() error {
	if nw.err != nil {
		return nw.err
	}
	return nw.walk.end()
}

// TranscodeBinaryToNDJSON renders a complete binary stream as the exact
// NDJSON byte stream the NDJSON sink would have written for the same
// campaign: header line, result lines, end line.
func TranscodeBinaryToNDJSON(w io.Writer, stream []byte) error {
	nw := ndjsonWriter{w: w}
	if _, err := nw.Write(stream); err != nil {
		return err
	}
	return nw.Close()
}

// unmarshalKind parses one NDJSON frame line and checks its kind tag.
func unmarshalKind(line []byte, kind string, v any) error {
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("campaign: parsing %q line: %w", kind, err)
	}
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(line, &probe); err != nil || probe.Kind != kind {
		return fmt.Errorf("campaign: line kind %q, want %q", probe.Kind, kind)
	}
	return nil
}

// TranscodeNDJSONToBinary parses a complete NDJSON campaign stream and
// renders the exact binary stream the Binary sink would have written.
func TranscodeNDJSONToBinary(w io.Writer, stream []byte) error {
	var hdr ndjsonHeader
	var end ndjsonEnd
	lines := bytes.Split(stream, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) < 2 {
		return fmt.Errorf("campaign: NDJSON stream has no header/trailer frame")
	}
	if err := unmarshalKind(lines[0], "campaign", &hdr); err != nil {
		return err
	}
	if err := unmarshalKind(lines[len(lines)-1], "end", &end); err != nil {
		return err
	}
	if _, err := w.Write(BinaryHeader(hdr.Campaign, hdr.SeedBase, hdr.Points, hdr.Trials)); err != nil {
		return err
	}
	var buf []byte
	for _, line := range lines[1 : len(lines)-1] {
		rec, err := ParseNDJSONResult(line)
		if err != nil {
			return err
		}
		buf = AppendBinaryRecord(buf[:0], rec)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err := w.Write(BinaryTrailer(end.Trials, end.Ok, end.Failed))
	return err
}
