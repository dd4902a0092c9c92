package estimate

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dasesim/internal/sim"
)

// wireResponse mirrors the response schema for test-side decoding with
// encoding/json (the production decoder never parses responses).
type wireResponse struct {
	ID                  uint64        `json:"id"`
	Apps                []wireAppResp `json:"apps"`
	Partition           []int         `json:"partition"`
	Unfairness          float64       `json:"unfairness"`
	PartitionUnfairness float64       `json:"partition_unfairness"`
}

type wireAppResp struct {
	Slowdown         float64 `json:"slowdown"`
	SlowdownAssigned float64 `json:"slowdown_assigned"`
	MBB              bool    `json:"mbb"`
	Alpha            float64 `json:"alpha"`
	TimeBank         float64 `json:"time_bank"`
	TimeRow          float64 `json:"time_row"`
	TimeLLC          float64 `json:"time_llc"`
}

func sampleRequest(id uint64) Request {
	req := Request{ID: id, MinSMs: 1}
	req.IntervalCycles = 50_000
	req.NumSMs = 16
	req.Apps = []sim.AppInterval{
		{App: 0, SMs: 8, Alpha: 0.42, Served: 9000, TimeInBanks: 180_000, ERBMiss: 300,
			ELLCMiss: 120.5, RowHits: 7000, RowMisses: 2000, BLP: 9.5, BLPAccess: 6.25,
			BLPBlocked: 2.75, TBSum: 96, TBShared: 48},
		{App: 1, SMs: 8, Alpha: 0.9, Served: 21_000, TimeInBanks: 400_000, ERBMiss: 800,
			ELLCMiss: 300.25, RowHits: 4000, RowMisses: 16_000, BLP: 18, BLPAccess: 14,
			BLPBlocked: 3.5, TBSum: 120, TBShared: 60},
	}
	return req
}

// TestRequestCodecRoundTrip: AppendRequest output must decode back to the
// identical struct — the exact float round-trip the cross-check relies on.
func TestRequestCodecRoundTrip(t *testing.T) {
	req := sampleRequest(7)
	req.PeakReqPerCyc = 1.5
	req.PeakActPerCyc = 0.7342178112 // bit-exact through shortest-form encode
	req.ReqMaxFactor = 0.6
	body := AppendRequest(nil, &req)
	got, single, err := decodeRequests(body, nil, 64, 8)
	if err != nil {
		t.Fatalf("decode: %v (body %s)", err, body)
	}
	if !single || len(got) != 1 {
		t.Fatalf("single=%v len=%d, want single batch of 1", single, len(got))
	}
	g := got[0]
	if g.ID != req.ID || g.IntervalCycles != req.IntervalCycles || g.NumSMs != req.NumSMs ||
		g.PeakReqPerCyc != req.PeakReqPerCyc || g.PeakActPerCyc != req.PeakActPerCyc ||
		g.ReqMaxFactor != req.ReqMaxFactor || g.MinSMs != req.MinSMs {
		t.Fatalf("header mismatch: got %+v want %+v", g, req)
	}
	if len(g.Apps) != len(req.Apps) {
		t.Fatalf("apps: got %d want %d", len(g.Apps), len(req.Apps))
	}
	for i := range req.Apps {
		if g.Apps[i] != req.Apps[i] {
			t.Fatalf("app %d mismatch:\n got %+v\nwant %+v", i, g.Apps[i], req.Apps[i])
		}
	}
}

// TestResponseIsValidJSON: the hand-rolled encoder must emit JSON that a
// standard decoder accepts, for single and batch framing.
func TestResponseIsValidJSON(t *testing.T) {
	svc := NewService(Options{})
	sc := svc.Get()
	defer svc.Put(sc)

	req := sampleRequest(3)
	sc.Body = AppendRequest(sc.Body[:0], &req)
	if err := svc.Process(sc); err != nil {
		t.Fatalf("Process: %v", err)
	}
	var single wireResponse
	if err := json.Unmarshal(sc.Out, &single); err != nil {
		t.Fatalf("single response is not valid JSON: %v\n%s", err, sc.Out)
	}
	if single.ID != 3 || len(single.Apps) != 2 || len(single.Partition) != 2 {
		t.Fatalf("unexpected response shape: %+v", single)
	}
	if single.Apps[0].Slowdown < 1 || single.Apps[1].Slowdown < 1 {
		t.Fatalf("slowdowns must be >= 1: %+v", single.Apps)
	}
	sum := single.Partition[0] + single.Partition[1]
	if sum != 16 {
		t.Fatalf("partition must cover all 16 SMs, got %v", single.Partition)
	}

	// Batch framing mirrors the request framing.
	r2 := sampleRequest(4)
	body := append([]byte{'['}, AppendRequest(nil, &req)...)
	body = append(body, ',')
	body = append(body, AppendRequest(nil, &r2)...)
	body = append(body, ']')
	sc.Body = append(sc.Body[:0], body...)
	if err := svc.Process(sc); err != nil {
		t.Fatalf("batch Process: %v", err)
	}
	var batch []wireResponse
	if err := json.Unmarshal(sc.Out, &batch); err != nil {
		t.Fatalf("batch response is not valid JSON: %v\n%s", err, sc.Out)
	}
	if len(batch) != 2 || batch[0].ID != 3 || batch[1].ID != 4 {
		t.Fatalf("unexpected batch: %+v", batch)
	}
	if sc.BatchSize() != 2 {
		t.Fatalf("BatchSize = %d, want 2", sc.BatchSize())
	}
}

const validBody = `{"interval_cycles":50000,"apps":[{"sms":8,"alpha":0.5,"served":100}]}`

// decodeEdgeCases drive the hand-rolled decoder through its rejection paths
// and its unknown-field tolerance; FuzzDecodeRequests seeds from them too.
var decodeEdgeCases = []struct {
	name, body string
	kind       string // "" = accept
}{
	{"valid-minimal", validBody, ""},
	{"unknown-fields-skipped", `{"interval_cycles":50000,"future":{"a":[1,"x\"y",true,null]},"apps":[{"sms":8,"alpha":0.5,"served":100,"note":"hi"}]}`, ""},
	{"whitespace-tolerant", "  {\n\t\"interval_cycles\": 50000 , \"apps\" : [ { \"sms\" : 8 } ]\n}  ", ""},
	{"empty-body", "", KindDecode},
	{"not-json", "hello", KindDecode},
	{"bare-number", "42", KindDecode},
	{"trailing-data", validBody + "x", KindDecode},
	{"trailing-data-batch", "[" + validBody + "]x", KindDecode},
	{"unterminated-object", `{"interval_cycles":50000`, KindDecode},
	{"unterminated-string", `{"interval_cycles":50000,"x":"abc`, KindDecode},
	{"escaped-key-rejected", `{"interval_cy\u0063les":50000,"apps":[{}]}`, KindDecode},
	{"bad-number", `{"interval_cycles":12e,"apps":[{}]}`, KindDecode},
	{"plus-sign-number", `{"num_sms":+16,"apps":[{}]}`, KindDecode},
	{"leading-zero-number", `{"num_sms":016,"apps":[{}]}`, KindDecode},
	{"bare-fraction-number", `{"apps":[{"alpha":.5}]}`, KindDecode},
	{"negative-uint", `{"interval_cycles":-1,"apps":[{}]}`, KindDecode},
	{"float-for-uint", `{"apps":[{"served":1.5}]}`, KindDecode},
	{"huge-float-overflows", `{"apps":[{"alpha":1e999}]}`, KindDecode},
	{"nan-is-not-json", `{"apps":[{"alpha":NaN}]}`, KindDecode},
	{"deep-nesting-bounded", `{"x":` + strings.Repeat(`[`, 40) + strings.Repeat(`]`, 40) + `,"apps":[{}]}`, KindDecode},
	{"empty-batch", "[]", KindInvalid},
	{"oversized-batch", "[" + strings.Repeat(validBody+",", 64) + validBody + "]", KindInvalid},
	{"too-many-apps", `{"apps":[{},{},{},{},{},{},{},{},{}]}`, KindInvalid},
	{"escapes-in-skipped-string", `{"note":"\u00e9\n\"","apps":[{"sms":8}]}`, ""},
	{"empty-containers-skipped", `{"x":{},"y":[],"z":false,"apps":[{}]}`, ""},
	{"bad-unicode-escape", `{"note":"\u00zz","apps":[{}]}`, KindDecode},
	{"bad-escape-letter", `{"note":"\q","apps":[{}]}`, KindDecode},
	{"control-char-in-key", "{\"a\x01\":1,\"apps\":[{}]}", KindDecode},
	{"control-char-in-string", "{\"x\":\"a\x01\",\"apps\":[{}]}", KindDecode},
	{"unterminated-key", `{"apps`, KindDecode},
	{"missing-colon", `{"apps" [{}]}`, KindDecode},
	{"bad-literal", `{"x":tru,"apps":[{}]}`, KindDecode},
	{"float-for-int", `{"apps":[{"sms":1.5}]}`, KindDecode},
	{"bad-separator-in-app", `{"apps":[{"sms":8 "alpha":0.5}]}`, KindDecode},
	{"bad-separator-in-apps", `{"apps":[{} {}]}`, KindDecode},
	{"bad-separator-in-skipped-array", `{"x":[1 2],"apps":[{}]}`, KindDecode},
	{"bad-separator-in-skipped-object", `{"x":{"a":1 "b":2},"apps":[{}]}`, KindDecode},
	{"bad-separator-in-batch", `[{"apps":[{}]} {"apps":[{}]}]`, KindDecode},
}

// TestDecodeEdgeCases checks each decodeEdgeCases body's verdict.
func TestDecodeEdgeCases(t *testing.T) {
	for _, tc := range decodeEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := decodeRequests([]byte(tc.body), nil, 64, 8)
			if tc.kind == "" {
				if err != nil {
					t.Fatalf("want accept, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want %s error, got accept", tc.kind)
			}
			if err.Kind != tc.kind {
				t.Fatalf("want kind %s, got %s (%s)", tc.kind, err.Kind, err.Msg)
			}
		})
	}
}

// TestDecodeReuseKeepsCapacity: recycled request slices must not leak values
// between decodes and must reuse inner-app capacity.
func TestDecodeReuseKeepsCapacity(t *testing.T) {
	big := sampleRequest(1)
	body := AppendRequest(nil, &big)
	reqs, _, err := decodeRequests(body, nil, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Second decode of a one-field request into the recycled slice: no stale
	// apps, no stale header fields.
	small := []byte(`{"interval_cycles":7,"apps":[{"sms":1}]}`)
	reqs2, _, err := decodeRequests(small, reqs[:0], 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := reqs2[0]
	if r.ID != 0 || r.NumSMs != 0 || r.MinSMs != 0 || len(r.Apps) != 1 {
		t.Fatalf("stale fields leaked into recycled request: %+v", r)
	}
	if r.Apps[0] != (sim.AppInterval{SMs: 1}) {
		t.Fatalf("stale app counters leaked: %+v", r.Apps[0])
	}
}

// TestFloatRoundTrip: shortest-form encoding must survive a decode
// bit-exactly, including awkward values.
func TestFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, 0.1, 2.0 / 3.0, math.Pi, 1e-300, 1e300, 5e-324, math.MaxFloat64} {
		buf := appendFloatField(nil, "x", v)
		s := strings.TrimPrefix(string(buf), `"x":`)
		got, err := parseFloatForTest(s)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got != v {
			t.Fatalf("round-trip changed %v to %v", v, got)
		}
	}
}

func parseFloatForTest(s string) (float64, error) {
	d := decoder{data: []byte(s)}
	v, err := d.float("x")
	if err != nil {
		return 0, err
	}
	return v, nil
}

// TestHeaderNumberErrors: a malformed number in a request header field is
// refused with the scan's offset, whatever the field's type.
func TestHeaderNumberErrors(t *testing.T) {
	for body, want := range map[string]string{
		`{"peak_req_per_cyc":-,"apps":[{}]}`: "expected a number at offset 20",
		`{"num_sms":1.,"apps":[{}]}`:         "malformed number at offset 11",
		`{"id":x,"apps":[{}]}`:               "expected a number at offset 6",
	} {
		_, _, err := decodeRequests([]byte(body), nil, maxBatch, maxApps)
		if err == nil || err.Kind != KindDecode || err.Msg != want {
			t.Errorf("%s: got %v, want decode error %q", body, err, want)
		}
	}
}
