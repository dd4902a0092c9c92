package estimate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
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
	// The wire golden's bodies hold every boundary of the number parser's
	// exact cases and of the expected-key compare.
	for _, tc := range wireCases() {
		if !strings.HasPrefix(tc.name, "edge-") {
			f.Add(tc.body(f))
		}
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

// FuzzProcess holds the whole of Process to its contract on any body: it
// never panics, whatever it accepts has apps whose sms sum to at most
// num_sms, and it answers that with valid JSON whose every partition gives
// each app at least min_sms SMs and sums to num_sms.
func FuzzProcess(f *testing.F) {
	// min_sms*2 and min_sms*4 wrap to -2^63 and 0 at min_sms = 2^62.
	f.Add([]byte(`{"min_sms":4611686018427387904,"apps":[` + app("") + `,` + app("") + `]}`))
	f.Add([]byte(`{"min_sms":4611686018427387904,"apps":[` + app("") + `,` + app("") + `,` + app("") + `,` + app("") + `]}`))
	for _, tc := range wireCases() {
		f.Add(tc.body(f))
	}
	svc := NewService(Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := svc.Get()
		defer svc.Put(sc)
		sc.Body = append(sc.Body[:0], body...)
		if err := svc.Process(sc); err != nil {
			return
		}
		if !json.Valid(sc.Out) {
			t.Fatalf("invalid JSON answer %q to %q", sc.Out, body)
		}
		for i := range sc.resps {
			req, part := &sc.reqs[i], sc.resps[i].Partition
			sms := 0
			for _, a := range req.Apps {
				sms += a.SMs
			}
			if sms > req.NumSMs {
				t.Fatalf("request %d of %q: accepted apps holding %d SMs of num_sms %d", i, body, sms, req.NumSMs)
			}
			if len(part) != len(req.Apps) {
				t.Fatalf("request %d of %q: partition %v for %d apps", i, body, part, len(req.Apps))
			}
			sum := 0
			for _, n := range part {
				if n < req.MinSMs {
					t.Fatalf("request %d of %q: partition %v below min_sms %d", i, body, part, req.MinSMs)
				}
				sum += n
			}
			if sum != req.NumSMs {
				t.Fatalf("request %d of %q: partition %v does not sum to num_sms %d", i, body, part, req.NumSMs)
			}
		}
	})
}

// FuzzAppendFloat holds the encoder's Schubfach conversion and 'g' layout
// to strconv.AppendFloat(v, 'g', -1, 64), byte for byte, over all float64
// bits.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 999999, -999999, 1e6, -1e6, 999999.5,
		0.5, -0.5, 0.482825, 1e-4, 0.00009999, 123456.12345678, 123456.123456789, 0.1 + 0.2,
		1 << 53, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		// Powers of two (the closer lower neighbour), the smallest normal,
		// integers at and past 2^53, and the layout's exponent switches.
		0x1p-1022, 0x1p-1021, 0x1p-1019, 0x1p100, 1<<53 + 2, 1e21, 1e23, 1e-5, 123456.5, 1.5e300,
		// Halfway between the two shortest candidates: the even one wins.
		math.Float64frombits(0x431769988ee82df3)} {
		f.Add(math.Float64bits(v))
		f.Add(math.Float64bits(math.Nextafter(v, 0)))
		f.Add(math.Float64bits(math.Nextafter(v, math.Inf(1))))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got := appendFloatField(nil, "x", v)
		want := strconv.AppendFloat([]byte(`"x":`), v, 'g', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): got %s, want %s", v, bits, got, want)
		}
	})
}

// FuzzParseFloat holds the decoder's exact float path to
// strconv.ParseFloat, bit for bit: the span is mant's digits with the
// point placed frac digits from the right (zeros padded in front when frac
// exceeds them). Up to 19 digits it is one float division below 2^53 and
// one 128-by-64 integer division at or above; longer spans go to strconv.
func FuzzParseFloat(f *testing.F) {
	for _, mant := range []uint64{0, 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 9007199254740993, 9007199254740995,
		1<<54 - 1, 1e16, 1e17 - 1, 1e19 - 1, 1e19, math.MaxUint64, math.MaxUint64 - 1, 1<<63 + 1<<10} {
		for _, frac := range []uint8{0, 1, 3, 15, 16, 19, 20, 25} {
			f.Add(mant, frac, false)
		}
	}
	f.Add(uint64(7342178112345678), uint8(16), true)
	f.Fuzz(func(t *testing.T, mant uint64, frac uint8, neg bool) {
		digits := strconv.FormatUint(mant, 10)
		n := int(frac % 26)
		span := digits
		if n > 0 {
			if pad := n + 1 - len(digits); pad > 0 {
				digits = strings.Repeat("0", pad) + digits
			}
			span = digits[:len(digits)-n] + "." + digits[len(digits)-n:]
		}
		if neg {
			span = "-" + span
		}
		d := decoder{data: []byte(span)}
		got, err := d.float("x")
		if err != nil || d.pos != len(span) {
			t.Fatalf("%s: decoder stopped at %d of %d: %v", span, d.pos, len(span), err)
		}
		want, perr := strconv.ParseFloat(span, 64)
		if perr != nil {
			t.Fatalf("%s: strconv: %v", span, perr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: got %v (%#x), want %v (%#x)", span, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
