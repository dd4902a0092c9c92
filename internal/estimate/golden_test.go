package estimate

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the wire golden (testdata/wire.golden) and its simulated bodies")

// Bodies built from short real shared simulations, as bench builds its
// est-* corpus (5,000-cycle intervals, even split). They are committed, so
// the golden does not move when the simulator does; -update re-simulates.
const (
	batchBodyFile  = "testdata/batch16x4.json"
	singleBodyFile = "testdata/single2.json"
)

// simulatedBodies returns the 16×4 batch (one request per interval of a
// 4-app run) and a 2-app single (the last interval of a 2-app run).
func simulatedBodies(t testing.TB) (batch, single []byte) {
	t.Helper()
	snaps := func(abbrs []string, intervals int) []sim.IntervalSnapshot {
		var ps []kernels.Profile
		for _, a := range abbrs {
			p, ok := kernels.ByAbbr(a)
			if !ok {
				t.Fatalf("no kernel %s", a)
			}
			ps = append(ps, p)
		}
		cfg := config.Default()
		cfg.IntervalCycles = 5_000
		res, err := sim.RunShared(cfg, ps, sim.EvenAllocation(cfg.NumSMs, len(ps)), uint64(intervals)*cfg.IntervalCycles, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Snapshots
	}
	batch = []byte{'['}
	for i, s := range snaps([]string{"SB", "CT", "SD", "QR"}, 16) {
		if i > 0 {
			batch = append(batch, ',')
		}
		req := FromSnapshot(&s)
		batch = AppendRequest(batch, &req)
	}
	batch = append(batch, ']')
	two := snaps([]string{"SB", "SD"}, 2)
	req := FromSnapshot(&two[len(two)-1])
	return batch, AppendRequest(nil, &req)
}

// readBody returns a committed body file.
func readBody(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// spaced puts whitespace around every structural character of a body whose
// strings hold none of them.
func spaced(body []byte) string {
	var b strings.Builder
	b.WriteString(" \t\r\n")
	for _, c := range body {
		if strings.IndexByte("{}[],:", c) >= 0 {
			b.WriteString(" \n")
			b.WriteByte(c)
			b.WriteString("\t\r ")
			continue
		}
		b.WriteByte(c)
	}
	b.WriteString("\n ")
	return b.String()
}

// app is a plausible app object with the given overrides spliced in front;
// a later duplicate key wins, so the overrides only add to it.
func app(over string) string {
	if over != "" {
		over += ","
	}
	return `{` + over + `"sms":8,"alpha":0.42,"served":9000,"time_in_banks":180000,"erb_miss":300,` +
		`"ellc_miss":120.5,"row_hits":7000,"row_misses":2000,"blp":9.5,"blp_access":6.25,` +
		`"blp_blocked":2.75,"tb_sum":96,"tb_shared":48}`
}

// appLast is app with the overrides after every default, so they win.
func appLast(over string) string {
	a := app("")
	return a[:len(a)-1] + "," + over + "}"
}

// wireCase is one body of the wire golden.
type wireCase struct {
	name string
	body func(t testing.TB) []byte
}

func literal(s string) func(testing.TB) []byte {
	return func(testing.TB) []byte { return []byte(s) }
}

// wireCases are the bodies the golden pins: real traffic, every fast-path
// boundary of the number parser, the expected-key compare's fallbacks, and
// rejections with the offsets their messages carry.
func wireCases() []wireCase {
	sample := sampleRequest(3)
	cases := []wireCase{
		{"batch16x4", func(t testing.TB) []byte { return readBody(t, batchBodyFile) }},
		{"single2", func(t testing.TB) []byte { return readBody(t, singleBodyFile) }},
		{"whitespace-everywhere", literal(spaced(AppendRequest(nil, &sample)))},
		{"keys-reordered-unknown-duplicated", literal(`{"apps":[` +
			`{"tb_shared":48,"tb_sum":96,"blp_blocked":2.75,"future":{"x":[1,"a\"b",null]},"served":1,"sms":8,` +
			`"alpha":0.42,"served":9000,"time_in_banks":180000,"erb_miss":300,"ellc_miss":120.5,"row_hits":7000,` +
			`"row_misses":2000,"blp":9.5,"blp_access":6.25},` +
			appLast(`"sms":7,"SMS":1,"tb_shared ":1,"alpha" :0.9,"served":21000,"ellc_miss":300.25,"sms":8`) +
			`],"num_sms":16,"interval_cycles":1,"interval_cycles":50000,"id":9}`)},
		{"exponents-and-negative-zero", literal(`{"interval_cycles":50000,"peak_req_per_cyc":1.5e0,"apps":[` +
			appLast(`"alpha":4.2E-1,"ellc_miss":1.205e+2,"blp":-0,"blp_access":-0.0,"blp_blocked":2.75e0,"tb_shared":-0`) + `,` +
			appLast(`"alpha":-0,"blp":0.95E1,"ellc_miss":3e-1`) + `]}`)},
		{"negative-zero-uint", literal(`{"apps":[` + appLast(`"served":-0`) + `]}`)},
		{"mantissa-17-digits", literal(`{"apps":[` +
			appLast(`"alpha":0.42000000000000004,"ellc_miss":123456789012345.67,"blp":9.4999999999999982`) + `,` +
			appLast(`"blp_access":6.2500000000000001,"blp_blocked":2.7500000000000004`) + `]}`)},
		{"mantissa-2p53", literal(`{"peak_req_per_cyc":9.007199254740993,"apps":[` +
			appLast(`"alpha":0.9007199254740991,"blp":9.007199254740992,"blp_access":9.007199254740993`) + `,` +
			appLast(`"ellc_miss":900719925474099.1,"blp":90071.99254740992,"blp_blocked":0.9007199254740993`) + `]}`)},
		{"fraction-22-and-23-digits", literal(`{"apps":[` +
			appLast(`"alpha":0.0000001234567890123456,"blp_blocked":0.0000000000000000000001`) + `,` +
			appLast(`"alpha":0.00000001234567890123456,"blp_blocked":0.00000000000000000000001,"blp":1.0000000000000000000000`) + `]}`)},
		{"integral-999999-and-1e6", literal(`[` +
			`{"interval_cycles":999999,"apps":[` + appLast(`"served":1000,"time_in_banks":1000,"ellc_miss":999999,"blp_blocked":1`) + `,` + app("") + `]},` +
			`{"interval_cycles":1000000,"apps":[` + appLast(`"served":1000,"time_in_banks":1000,"ellc_miss":1000000,"blp_blocked":1`) + `,` + app("") + `]}]`)},
		{"uint-19-digits", literal(`{"id":1234567890123456789,"apps":[` + app("") + `]}`)},
		{"uint-20-digits", literal(`{"id":12345678901234567890,"apps":[` + app("") + `]}`)},
		{"uint64-max", literal(`{"id":18446744073709551615,"apps":[` + app("") + `]}`)},
		{"uint64-max-plus-one", literal(`{"id":18446744073709551616,"apps":[` + app("") + `]}`)},
		{"uint-20-nines", literal(`{"id":99999999999999999999,"apps":[` + app("") + `]}`)},
		{"int64-min-min-sms", literal(`{"min_sms":-9223372036854775808,"apps":[` + app("") + `]}`)},
		{"int64-min-sms", literal(`{"apps":[` + appLast(`"sms":-9223372036854775808`) + `]}`)},
		{"int64-max-plus-one", literal(`{"num_sms":9223372036854775808,"apps":[` + app("") + `]}`)},
		{"leading-zeros-accepted", literal(`{"apps":[` + appLast(`"sms":0,"alpha":0.05,"blp":0.0,"blp_access":0e0,"tb_shared":0`) + `]}`)},
		{"leading-zero-int", literal(`{"num_sms":016,"apps":[` + app("") + `]}`)},
		{"leading-zero-uint", literal(`{"id":01,"apps":[` + app("") + `]}`)},
		{"leading-zero-float", literal(`{"apps":[` + appLast(`"alpha":00.5`) + `]}`)},
		{"negative-leading-zero", literal(`{"apps":[` + appLast(`"blp":-01`) + `]}`)},
		{"bare-minus", literal(`{"apps":[` + appLast(`"blp":-`) + `]}`)},
		{"fraction-without-digits", literal(`{"apps":[` + appLast(`"blp":1.`) + `]}`)},
		{"exponent-without-digits", literal(`{"apps":[` + appLast(`"blp":1e`) + `]}`)},
		{"exponent-sign-without-digits", literal(`{"apps":[` + appLast(`"blp":1e+`) + `]}`)},
		{"exponent-on-uint", literal(`{"interval_cycles":5e4,"apps":[` + app("") + `]}`)},
		{"fraction-on-int", literal(`{"apps":[` + appLast(`"tb_sum":9.0`) + `]}`)},
		{"huge-exponent", literal(`{"apps":[` + appLast(`"blp":1e400`) + `]}`)},
		{"string-for-number", literal(`{"apps":[` + appLast(`"blp":"9"`) + `]}`)},
		{"escaped-expected-key", literal(`{"apps":[{"s\u006ds":8}]}`)},
		{"expected-key-then-space", literal(`{"apps":[{"sms" :8,"alpha" : 0.5 ,"served"` + "\n" + `:1}]}`)},
		{"key-prefix-of-expected", literal(`{"apps":[{"sm":8,"alph":0.5}]}`)},
		{"unterminated-after-key", literal(`{"apps":[{"sms":`)},
		{"unterminated-in-number", literal(`{"apps":[{"sms":8,"alpha":0.`)},
		{"missing-comma-between-apps", literal(`{"apps":[` + app("") + app("") + `]}`)},
		{"missing-colon-in-app", literal(`{"apps":[{"sms" 8}]}`)},
		{"trailing-garbage-batch", literal(`[{"apps":[` + app("") + `]}] x`)},
		{"batch-error-names-index", literal(`[{"apps":[` + app("") + `]},{"apps":[` + appLast(`"alpha":1.5`) + `]}]`)},
	}
	for _, tc := range decodeEdgeCases {
		cases = append(cases, wireCase{"edge-" + tc.name, literal(tc.body)})
	}
	return cases
}

// TestWireGolden runs Service.Process over every wire case and compares the
// response bytes, or the error's kind and text, with testdata/wire.golden.
// Regenerate with: go test ./internal/estimate -run TestWireGolden -update
func TestWireGolden(t *testing.T) {
	if *update {
		batch, single := simulatedBodies(t)
		for name, b := range map[string][]byte{batchBodyFile: batch, singleBodyFile: single} {
			if err := os.WriteFile(name, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc := NewService(Options{})
	sc := svc.Get()
	defer svc.Put(sc)
	var got bytes.Buffer
	for _, tc := range wireCases() {
		sc.Body = append(sc.Body[:0], tc.body(t)...)
		got.WriteString("== " + tc.name + "\n")
		if err := svc.Process(sc); err != nil {
			rerr := err.(*RequestError)
			got.WriteString("400 " + rerr.Kind + "\n" + rerr.Msg + "\n")
			continue
		}
		got.WriteString("200\n")
		got.Write(sc.Out)
		got.WriteByte('\n')
	}
	const golden = "testdata/wire.golden"
	if *update {
		if err := os.WriteFile(filepath.FromSlash(golden), got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gs, ws := strings.Split(got.String(), "\n== "), strings.Split(string(want), "\n== ")
	for i := 0; i < len(gs) && i < len(ws); i++ {
		if gs[i] != ws[i] {
			t.Fatalf("wire golden differs:\n got %s\nwant %s", gs[i], ws[i])
		}
	}
	t.Fatalf("wire golden has %d cases, want %d", len(gs), len(ws))
}
