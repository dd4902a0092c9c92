package estimate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"dasesim/internal/memreq"
	"dasesim/internal/sim"
)

// FuzzDecodeRequests checks the hand-rolled decoder differentially against
// encoding/json: whatever body decodeRequests accepts must be valid JSON,
// and encoding/json must read the same values from it, floats bit for bit
// and unknown keys ignored. The codec may refuse more than encoding/json
// does (escaped keys, deep nesting, batch and app limits); it must never
// accept what JSON forbids or read a value differently.
func FuzzDecodeRequests(f *testing.F) {
	single := sampleRequest(7)
	single.PeakReqPerCyc, single.PeakActPerCyc, single.ReqMaxFactor = 1.5, 0.7342178112, 0.6
	f.Add(AppendRequest(nil, &single))
	batch := []byte{'['}
	batch = AppendRequest(batch, &single)
	batch = append(batch, ',')
	r2 := sampleRequest(0)
	batch = AppendRequest(batch, &r2)
	f.Add(append(batch, ']'))
	for _, tc := range decodeEdgeCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		reqs, single, err := decodeRequests(body, nil, maxBatch, maxApps)
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("codec accepted invalid JSON %q", body)
		}
		objs := []json.RawMessage{body}
		if !single {
			objs = nil
			if err := json.Unmarshal(body, &objs); err != nil {
				t.Fatalf("codec read a batch from %q, encoding/json: %v", body, err)
			}
		}
		if len(objs) != len(reqs) {
			t.Fatalf("codec read %d requests from %q, encoding/json %d", len(reqs), body, len(objs))
		}
		// %+v prints each float64 in shortest round-trip form, -0 included,
		// so equal text is equal bits (JSON carries no NaN).
		for i := range objs {
			got, want := fmt.Sprintf("%+v", reqs[i]), fmt.Sprintf("%+v", referenceRequest(t, objs[i]))
			if got != want {
				t.Fatalf("request %d of %q:\n codec        %s\nencoding/json %s", i, body, got, want)
			}
		}
	})
}

// referenceRequest decodes one request object with encoding/json, reading
// the apps' keys from the DASE rows of sim.AppFields. Keys are
// matched exactly through map[string]json.RawMessage, since encoding/json's
// struct decoding matches them case-insensitively and the codec does not;
// a repeated key keeps its last value, as encoding/json's maps do.
func referenceRequest(t *testing.T, obj []byte) Request {
	t.Helper()
	fields := decodeObject(t, obj)
	var req Request
	decodeField(t, fields, "id", &req.ID)
	decodeField(t, fields, "interval_cycles", &req.IntervalCycles)
	decodeField(t, fields, "num_sms", &req.NumSMs)
	decodeField(t, fields, "peak_req_per_cyc", &req.PeakReqPerCyc)
	decodeField(t, fields, "peak_act_per_cyc", &req.PeakActPerCyc)
	decodeField(t, fields, "req_max_factor", &req.ReqMaxFactor)
	decodeField(t, fields, "min_sms", &req.MinSMs)
	var apps []json.RawMessage
	decodeField(t, fields, "apps", &apps)
	for i, raw := range apps {
		f := decodeObject(t, raw)
		req.Apps = append(req.Apps, sim.AppInterval{App: memreq.AppID(i)})
		a := reflect.ValueOf(&req.Apps[i]).Elem()
		for j, row := range sim.AppFields {
			if row.DASE {
				// Row j is AppInterval's field j+1 (TestAppFieldsCoverAppInterval).
				decodeField(t, f, row.Name, a.Field(j+1).Addr().Interface())
			}
		}
	}
	return req
}

func decodeObject(t *testing.T, obj []byte) map[string]json.RawMessage {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(obj, &fields); err != nil || fields == nil {
		t.Fatalf("codec read an object from %q, encoding/json: %v", obj, err)
	}
	return fields
}

// decodeField decodes fields[key] into dst when present. A value the codec
// accepted but encoding/json refuses (or reads as null) is a divergence.
func decodeField(t *testing.T, fields map[string]json.RawMessage, key string, dst any) {
	t.Helper()
	raw, ok := fields[key]
	if !ok {
		return
	}
	if bytes.Equal(raw, []byte("null")) {
		t.Fatalf("codec accepted null for %q", key)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		t.Fatalf("codec accepted %q = %s, encoding/json: %v", key, raw, err)
	}
}
