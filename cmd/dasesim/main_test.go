package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The goldens are the exact stdout of
//
//	go run ./cmd/dasesim -apps SB,SD -cycles 20000 > cmd/dasesim/testdata/sb-sd.golden
//	go run ./cmd/dasesim -list > cmd/dasesim/testdata/list.golden
//	go run ./cmd/dasesim -apps VA,CT -policy fair -cycles 60000 -csv cmd/dasesim/testdata/va-ct-fair.csv.golden
//
// The engine is deterministic, so a difference is a behaviour change:
// regenerate them with those commands only when the change is intended.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"sb-sd.golden", []string{"-apps", "SB,SD", "-cycles", "20000"}},
		{"list.golden", []string{"-list"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(tc.args, &stdout, &stderr); err != nil {
				t.Fatalf("run %q: %v\n%s", tc.args, err, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("stdout differs from testdata/%s:\n got:\n%s\nwant:\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestRunFairCSVSeedsAndConfig drives what the stdout goldens skip: a
// dumped configuration read back, DASE-Fair with its CSV trace compared
// byte for byte against testdata/va-ct-fair.csv.golden (two intervals of
// two apps; the dumped configuration is the default), and several seeds.
func TestRunFairCSVSeedsAndConfig(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "gpu.json")
	csvPath := filepath.Join(dir, "trace.csv")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-dump-config", cfgPath}, "configuration written to "},
		{[]string{"-config", cfgPath, "-apps", "VA,CT", "-policy", "fair", "-cycles", "60000", "-csv", csvPath}, "DASE-Fair: "},
		{[]string{"-cycles", "20000", "-seeds", "2"}, "slowdowns over 2 seeds"},
	} {
		var stdout bytes.Buffer
		if err := run(tc.args, &stdout, io.Discard); err != nil {
			t.Fatalf("run %q: %v", tc.args, err)
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("run %q: stdout lacks %q:\n%s", tc.args, tc.want, stdout.String())
		}
	}
	got, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "va-ct-fair.csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("-csv differs from testdata/va-ct-fair.csv.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-apps", "SB,XX"}, `unknown kernel "XX"`},
		{[]string{"-alloc", "8"}, "-alloc needs 2 values"},
		{[]string{"-alloc", "8,x"}, `bad allocation "x"`},
		{[]string{"-policy", "greedy"}, `unknown policy "greedy"`},
		{[]string{"-config", missing}, "missing.json"},
		{[]string{"-kernels", missing}, "missing.json"},
		{[]string{"-bogus"}, "-bogus"},
		{[]string{"-cycles", "0", "-policy", "fair"}, "-cycles must be positive"},
		{[]string{"-cycles", "20000", "-seeds", "0"}, "-seeds must be positive, got 0"},
		{[]string{"-cycles", "20000", "-seeds", "-2"}, "-seeds must be positive, got -2"},
		{[]string{"-cycles", "20000", "-seeds", "3", "-csv", filepath.Join(t.TempDir(), "x.csv")}, "-csv records one run's intervals; it cannot be combined with -seeds 3"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
