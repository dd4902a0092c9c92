package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dasesim/internal/telemetry"
)

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func TestRunDefaultsDeterministic(t *testing.T) {
	out1, sum1, err := runCLI(t, "-intervals", "6")
	if err != nil {
		t.Fatal(err)
	}
	out2, sum2, err := runCLI(t, "-intervals", "6")
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatal("same seed produced different CSV output")
	}
	if sum1 != sum2 {
		t.Fatal("same seed produced different summaries")
	}
	if !strings.HasPrefix(out1, "interval,tenant,") {
		t.Errorf("CSV missing header: %q", out1[:40])
	}
	if !strings.Contains(sum1, "Jain fairness") {
		t.Errorf("summary missing fairness digest: %q", sum1)
	}
	out3, _, err := runCLI(t, "-intervals", "6", "-seed", "7")
	if err != nil {
		t.Fatal(err)
	}
	if out3 == out1 {
		t.Fatal("different seeds produced identical CSV output")
	}
}

func TestRunOutFileAndTrace(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "alloc.csv")
	ndPath := filepath.Join(dir, "events.ndjson")
	stdout, _, err := runCLI(t, "-intervals", "4", "-out", csvPath, "-trace", ndPath)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "" {
		t.Errorf("-out file still wrote CSV to stdout: %q", stdout)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("interval,tenant,")) {
		t.Error("CSV file missing header")
	}
	nf, err := os.Open(ndPath)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	events, err := telemetry.ReadNDJSONStrict(nf)
	if err != nil {
		t.Fatal(err)
	}
	var jobs, intervals int
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindFleetJob:
			jobs++
		case telemetry.KindFleetInterval:
			intervals++
		}
	}
	if jobs == 0 || intervals == 0 {
		t.Errorf("NDJSON trace has %d fleet.job and %d fleet.interval events", jobs, intervals)
	}
}

func TestRunTraceInCSV(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "arrivals.csv")
	trace := strings.Join([]string{
		"# interval,tenant,job_id,kernel_abbr,min_sms,work",
		"0,astra,j0,BS,4,5000",
		"0,borei,j1,CT,8,5000",
		"2,astra,j2,QR,2,5000",
		"",
	}, "\n")
	if err := os.WriteFile(tracePath, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, "-intervals", "5", "-trace-in", tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "astra") || !strings.Contains(out, "borei") {
		t.Error("replayed trace missing tenant rows")
	}
}

func TestRunSimEngineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-engine run; skipped with -short")
	}
	args := []string{"-engine", "sim", "-intervals", "3", "-interval-cycles", "10000", "-work", "20000"}
	out1, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatal("sim-engine CSV differs between two runs of the same seed")
	}
}

func TestRunGoldenFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-engine run; skipped with -short")
	}
	out1, _, err := runCLI(t, "-golden")
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := runCLI(t, "-golden")
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatal("golden runs differ")
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-engine", "quantum"},
		{"-tenants", "novalue"},
		{"-tenants", "a:x:1"},
		{"-tenants", "a:1:x"},
		{"-rates", "1.0"}, // three default tenants
		{"-rates", "1.0,x,1.0"},
		{"-kernels", "NOPE"},
		{"-trace-in", "/nonexistent/arrivals.csv"},
		{"-gpus", "0"},
		{"-badflag"},
	}
	for _, args := range cases {
		if _, _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v: run succeeded, want error", args)
		}
	}
}

func TestParseArrivalCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"short line", "0,astra,j0,BS,4"},
		{"bad interval", "x,astra,j0,BS,4,100"},
		{"decreasing interval", "2,astra,j0,BS,4,100\n1,astra,j1,BS,4,100"},
		{"unknown kernel", "0,astra,j0,NOPE,4,100"},
		{"bad min_sms", "0,astra,j0,BS,x,100"},
		{"bad work", "0,astra,j0,BS,4,x"},
	}
	for _, tc := range cases {
		if _, err := parseArrivalCSV(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: parsed, want error", tc.name)
		}
	}
	good, err := parseArrivalCSV(strings.NewReader("0,a,j0,BS,4,100\n\n# comment\n1,b,j1,CT,2,50\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 2 || good[1].Job.ID != "j1" || good[1].Job.Work != 50 {
		t.Fatalf("parsed %+v", good)
	}
}
