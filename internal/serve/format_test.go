package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/obs"
)

// TestStreamFormatNegotiation pins the resolution order: explicit
// ?format= wins, then the Accept header, then the NDJSON default that
// every pre-binary consumer relies on.
func TestStreamFormatNegotiation(t *testing.T) {
	req := func(url string, accept string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		return r
	}
	cases := []struct {
		name     string
		r        *http.Request
		allowSSE bool
		want     string
		wantErr  bool
	}{
		{"default", req("/x", ""), false, FormatNDJSON, false},
		{"query-binary", req("/x?format=binary", ""), false, FormatBinary, false},
		{"query-ndjson", req("/x?format=ndjson", "application/x-injectable-trials"), false, FormatNDJSON, false},
		{"query-beats-accept", req("/x?format=binary", "text/event-stream"), true, FormatBinary, false},
		{"accept-binary", req("/x", "application/x-injectable-trials"), false, FormatBinary, false},
		{"accept-sse-allowed", req("/x", "text/event-stream"), true, formatSSE, false},
		{"accept-sse-ignored-on-run", req("/x", "text/event-stream"), false, FormatNDJSON, false},
		{"query-sse-allowed", req("/x?format=sse", ""), true, formatSSE, false},
		{"query-sse-rejected-on-run", req("/x?format=sse", ""), false, "", true},
		{"unknown", req("/x?format=protobuf", ""), false, "", true},
	}
	for _, tc := range cases {
		got, err := streamFormat(tc.r, tc.allowSSE)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: got %q, want error", tc.name, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: got %q/%v, want %q", tc.name, got, err, tc.want)
		}
	}
}

func runFormat(t *testing.T, base, body, query, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/run"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRunFormatEquivalence is the cross-format replay contract: one
// execution, every format a lossless view of it. The binary stream
// transcodes to exactly the NDJSON the daemon serves, both replay
// byte-identically on cache hits, and the round trip back to binary
// reproduces the slab bit-for-bit.
func TestRunFormatEquivalence(t *testing.T) {
	s := NewServer(Config{Registry: stubRegistry(nil, nil, nil), Hub: obs.NewHub()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"experiment":"stub","trials":24,"seed_base":909}`

	resp, bin := runFormat(t, ts.URL, body, "?format=binary", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary run: HTTP %d: %s", resp.StatusCode, bin)
	}
	if ct := resp.Header.Get("Content-Type"); ct != BinaryContentType {
		t.Errorf("binary Content-Type = %q, want %q", ct, BinaryContentType)
	}

	resp, nd := runFormat(t, ts.URL, body, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson run: HTTP %d: %s", resp.StatusCode, nd)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second run disposition = %q, want hit", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("ndjson Content-Type = %q, want application/x-ndjson", ct)
	}

	var fromBin bytes.Buffer
	if err := campaign.TranscodeBinaryToNDJSON(&fromBin, bin); err != nil {
		t.Fatalf("transcoding served binary: %v", err)
	}
	if !bytes.Equal(fromBin.Bytes(), nd) {
		t.Fatal("binary→NDJSON transcode differs from the daemon's NDJSON response")
	}
	var backToBin bytes.Buffer
	if err := campaign.TranscodeNDJSONToBinary(&backToBin, nd); err != nil {
		t.Fatalf("transcoding served NDJSON: %v", err)
	}
	if !bytes.Equal(backToBin.Bytes(), bin) {
		t.Fatal("NDJSON→binary round trip differs from the daemon's binary response")
	}

	// Replays: every repeat request in either format is byte-identical.
	for i := 0; i < 2; i++ {
		if _, again := runFormat(t, ts.URL, body, "?format=binary", ""); !bytes.Equal(again, bin) {
			t.Fatal("binary replay differs")
		}
		if _, again := runFormat(t, ts.URL, body, "", ""); !bytes.Equal(again, nd) {
			t.Fatal("NDJSON replay differs")
		}
		// Accept-header negotiation serves the same bytes as ?format=.
		if _, again := runFormat(t, ts.URL, body, "", BinaryContentType); !bytes.Equal(again, bin) {
			t.Fatal("Accept-negotiated binary differs")
		}
	}

	// A live (non-cached) binary subscriber sees the same bytes too: new
	// seed, concurrent NDJSON and binary runs of it.
	body2 := `{"experiment":"stub","trials":24,"seed_base":910}`
	_, bin2 := runFormat(t, ts.URL, body2, "?format=binary", "")
	_, nd2 := runFormat(t, ts.URL, body2, "", "")
	var fromBin2 bytes.Buffer
	if err := campaign.TranscodeBinaryToNDJSON(&fromBin2, bin2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromBin2.Bytes(), nd2) {
		t.Fatal("fresh-run transcode differs from NDJSON response")
	}

	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsUnknownFormat pins the 400 on a bad ?format=.
func TestRunRejectsUnknownFormat(t *testing.T) {
	s := NewServer(Config{Registry: stubRegistry(nil, nil, nil)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := runFormat(t, ts.URL, `{"experiment":"stub","trials":1,"seed_base":1}`, "?format=xml", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d (%s), want 400", resp.StatusCode, body)
	}
}

// aggRegistry registers an experiment whose trial values carry the
// success/attempts fields the aggregator probes: point "even" succeeds
// on even trials (attempts = trial%3+1), point "odd" errors its trial 0.
func aggRegistry() *Registry {
	type trialValue struct {
		Success  bool `json:"success"`
		Attempts int  `json:"attempts"`
	}
	r := NewRegistry()
	r.Register(Entry{
		Name: "agg",
		Build: func(spec JobSpec) (*campaign.Spec, error) {
			point := func(label string, failFirst bool) campaign.Point {
				return campaign.Point{
					Label:  label,
					Trials: spec.Trials,
					Seed:   func(i int) uint64 { return spec.SeedBase + uint64(i) },
					Run: func(t campaign.Trial) (any, error) {
						if failFirst && t.Index == 0 {
							return nil, fmt.Errorf("sim buffer underrun")
						}
						return trialValue{Success: t.Index%2 == 0, Attempts: t.Index%3 + 1}, nil
					},
				}
			}
			return &campaign.Spec{
				Name:     "agg",
				SeedBase: spec.SeedBase,
				Points:   []campaign.Point{point("even", false), point("odd", true)},
			}, nil
		},
	})
	return r
}

// TestAggregateEndpoint runs a campaign with known per-point outcomes
// and checks the columnar summary: counts, rates, histogram mass, and
// that the memoized aggregate is identical on a cache-hit repeat.
func TestAggregateEndpoint(t *testing.T) {
	s := NewServer(Config{Registry: aggRegistry(), Hub: obs.NewHub()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"experiment":"agg","trials":6,"seed_base":11}`

	post := func() (*http.Response, Aggregate) {
		resp, err := http.Post(ts.URL+"/v1/aggregate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
		var agg Aggregate
		if err := json.Unmarshal(raw, &agg); err != nil {
			t.Fatalf("decoding aggregate: %v (%s)", err, raw)
		}
		return resp, agg
	}

	resp, agg := post()
	if agg.Campaign != "agg" || agg.SeedBase != 11 {
		t.Errorf("identity = %s/%d, want agg/11", agg.Campaign, agg.SeedBase)
	}
	// 12 trials total; "odd" trial 0 errors, all other 11 return values;
	// successes are even trial indexes with a value: even has 3 of 6,
	// odd has trials 2 and 4 (trial 0 errored).
	if agg.Trials != 12 || agg.OK != 11 || agg.Failed != 1 {
		t.Errorf("tallies = %d/%d/%d, want 12/11/1", agg.Trials, agg.OK, agg.Failed)
	}
	if agg.Successes != 5 {
		t.Errorf("successes = %d, want 5", agg.Successes)
	}
	if len(agg.Points) != 2 || agg.Points[0].Point != "even" || agg.Points[1].Point != "odd" {
		t.Fatalf("points = %+v, want [even odd] in ordinal order", agg.Points)
	}
	even, odd := agg.Points[0], agg.Points[1]
	if even.Trials != 6 || even.OK != 6 || even.Failed != 0 || even.Successes != 3 {
		t.Errorf("even = %+v", even)
	}
	if odd.Trials != 6 || odd.OK != 5 || odd.Failed != 1 || odd.Successes != 2 {
		t.Errorf("odd = %+v", odd)
	}
	if even.SuccessRate != 0.5 || agg.SuccessRate != 5.0/12.0 {
		t.Errorf("rates = %v / %v", even.SuccessRate, agg.SuccessRate)
	}
	// Histogram mass: every non-errored trial contributed one attempts
	// sample (attempts is always >= 1), and the campaign histogram is the
	// exact merge of the point histograms.
	if agg.Attempts.Count != 11 || agg.Attempts.Count != even.Attempts.Count+odd.Attempts.Count {
		t.Errorf("attempts count = %d (even %d + odd %d), want 11",
			agg.Attempts.Count, even.Attempts.Count, odd.Attempts.Count)
	}
	if agg.Attempts.Min != 1 || agg.Attempts.Max != 3 {
		t.Errorf("attempts min/max = %v/%v, want 1/3", agg.Attempts.Min, agg.Attempts.Max)
	}

	// Repeat: a cache hit serves the memoized aggregate, identical JSON.
	resp2, agg2 := post()
	if resp.Header.Get("X-Cache") != "miss" || resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("dispositions = %q then %q, want miss then hit",
			resp.Header.Get("X-Cache"), resp2.Header.Get("X-Cache"))
	}
	a1, _ := json.Marshal(agg)
	a2, _ := json.Marshal(agg2)
	if !bytes.Equal(a1, a2) {
		t.Error("cache-hit aggregate differs from the first computation")
	}

	// GET /v1/jobs/{id}/aggregate answers the same summary.
	id := resp.Header.Get("X-Job-ID")
	jr, err := http.Get(ts.URL + "/v1/jobs/" + id + "/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var byJob Aggregate
	if err := json.NewDecoder(jr.Body).Decode(&byJob); err != nil {
		t.Fatal(err)
	}
	a3, _ := json.Marshal(byJob)
	if !bytes.Equal(a1, a3) {
		t.Error("per-job aggregate differs from the submit-path aggregate")
	}

	// The aggregate must agree with aggregating the served binary stream.
	_, bin := runFormat(t, ts.URL, body, "?format=binary", "")
	direct, err := AggregateStream(bin)
	if err != nil {
		t.Fatal(err)
	}
	a4, _ := json.Marshal(direct)
	if !bytes.Equal(a1, a4) {
		t.Error("endpoint aggregate differs from AggregateStream over the served binary")
	}
}

// TestAggregateClient exercises the typed client helper end to end.
func TestAggregateClient(t *testing.T) {
	s := NewServer(Config{Registry: aggRegistry()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	agg, err := c.Aggregate(t.Context(), JobSpec{Experiment: "agg", Trials: 4, SeedBase: 3})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != 8 || len(agg.Points) != 2 {
		t.Fatalf("aggregate = %+v, want 8 trials over 2 points", agg)
	}
}

// TestLiveSubscribers attaches an NDJSON and an SSE subscriber to a job
// whose trials are held, so both render the stream live through the
// NDJSON writer rather than replaying a sealed slab. The NDJSON
// subscriber must receive exactly the memoized sealed NDJSON, the SSE
// subscriber those lines as "result" events in order and then "end",
// and serve.stream_bytes must grow by every byte both clients received.
func TestLiveSubscribers(t *testing.T) {
	hub := obs.NewHub()
	started := make(chan string, 16)
	release := make(chan struct{})
	s := NewServer(Config{Registry: stubRegistry(nil, started, release), Hub: hub, TrialWorkers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, err := s.Submit(JobSpec{Experiment: "slow", Trials: 5, SeedBase: 31})
	if err != nil {
		t.Fatal(err)
	}
	<-started // running, with its trials held
	egress := hub.Reg().Counter("serve.stream_bytes")
	before := egress.Value()
	// Response headers arrive with the first flushed line, so each
	// subscriber is streaming live once its GET returns.
	subscribe := func(query string) *http.Response {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.id + "/results" + query)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ndResp, sseResp := subscribe(""), subscribe("?format=sse")
	if _, sealed := j.buf.sealedBytes(); sealed {
		t.Fatal("job sealed before its trials were released")
	}
	close(release)
	readAll := func(resp *http.Response) []byte {
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	nd, sse := readAll(ndResp), readAll(sseResp)
	<-j.done

	sealed, ok := s.ndjsonSlab(j)
	if !ok {
		t.Fatal("finished job has no memoized NDJSON")
	}
	if !bytes.Equal(nd, sealed) {
		t.Fatalf("live NDJSON differs from the sealed NDJSON:\nlive   %q\nsealed %q", nd, sealed)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(sealed), "\n") {
		if line != "" {
			fmt.Fprintf(&want, "event: result\ndata: %s\n", line)
		}
	}
	want.WriteString("event: end\ndata: {}\n\n")
	if string(sse) != want.String() {
		t.Fatalf("live SSE differs from the sealed NDJSON lines:\ngot  %q\nwant %q", sse, want.String())
	}
	if got := egress.Value() - before; got != int64(len(nd)+len(sse)) {
		t.Fatalf("serve.stream_bytes grew by %d, clients received %d", got, len(nd)+len(sse))
	}
}
