package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dasesim/internal/experiments"
)

// testdata/run.golden and testdata/run.json are the exact stdout and -json
// bytes of a reduced run:
//
//	go run ./cmd/experiments -run tableII,tableI,fig4 -cycles 20000 > cmd/experiments/testdata/run.golden
//	go run ./cmd/experiments -run tableII,tableI,fig4 -cycles 20000 -json cmd/experiments/testdata/run.json
//
// With -json, stdout ends with one more line naming the file. The engine is
// deterministic, so a difference is a behaviour change: regenerate them
// with those commands only when the change is intended.
func TestRunGolden(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "tableII,tableI,fig4", "-cycles", "20000", "-json", jsonPath, "-cache-dir", t.TempDir()}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "run.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if want := string(golden) + "results written to " + jsonPath + "\n"; stdout.String() != want {
		t.Errorf("stdout differs from testdata/run.golden:\n got:\n%s\nwant:\n%s", stdout.String(), want)
	}
	for _, name := range []string{"tableII", "tableI", "fig4"} {
		if !strings.Contains(stderr.String(), "["+name+" took ") {
			t.Errorf("stderr lacks the %s timing line:\n%s", name, stderr.String())
		}
	}
	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-json bytes differ from testdata/run.json:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunWarmCacheDir runs a policy-free subset twice on one -cache-dir:
// the second run reads every static, epoch and alone run from the
// directory, simulates nothing, and prints the same tables.
func TestRunWarmCacheDir(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-run", "tableIII,fig4,extD", "-cycles", "20000", "-pairs", "2", "-cache-dir", dir}
	var stdout [2]bytes.Buffer
	var stderr [2]bytes.Buffer
	for i := range stdout {
		if err := run(args, &stdout[i], &stderr[i]); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, stderr[i].String())
		}
	}
	if stdout[0].String() != stdout[1].String() {
		t.Errorf("warm stdout differs from cold:\n got:\n%s\nwant:\n%s", stdout[1].String(), stdout[0].String())
	}
	if cold := stderr[0].String(); strings.Contains(cold, "[store: 0 simulated") || !strings.Contains(cold, "[store: ") {
		t.Errorf("cold run's store line is missing or simulated nothing:\n%s", cold)
	}
	if warm := stderr[1].String(); !strings.Contains(warm, "[store: 0 simulated, ") || !strings.Contains(warm, " hits, 0 evicted]") {
		t.Errorf("warm run simulated again:\n%s", warm)
	}
}

func TestRunListAndErrors(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-list"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(names(), "\n") + "\n"; stdout.String() != want {
		t.Errorf("-list printed:\n%s\nwant:\n%s", stdout.String(), want)
	}

	if all, err := selectExperiments("all"); err != nil || len(all) != len(names()) || !all["ablation"] {
		t.Errorf("-run all selects %v (%v), want every experiment, the ablation included", all, err)
	}

	dir := t.TempDir()
	file, jsonPath := filepath.Join(dir, "file"), filepath.Join(dir, "out.json")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string // substrings of the error; none for a run that succeeds
	}{
		// A typo used to run nothing and exit 0.
		{[]string{"-run", "tableII,fig99"}, []string{`unknown experiment "fig99"`, strings.Join(names(), ", ")}},
		{[]string{"-run", "ablations"}, []string{`unknown experiment "ablations"`}},
		{[]string{"-bogus"}, []string{"-bogus"}},
		{[]string{"-run", "tableII", "-cache-dir", filepath.Join(file, "cache")}, []string{"cache dir"}},
		// The ablation is a name like any other, and -json holds its rows.
		{[]string{"-run", "ablation", "-cycles", "10000", "-pairs", "1", "-json", jsonPath}, nil},
	} {
		stdout.Reset()
		err := run(tc.args, &stdout, io.Discard)
		if tc.want == nil {
			var out map[string][]experiments.AblationRow
			data, rerr := os.ReadFile(jsonPath)
			if err != nil || rerr != nil || json.Unmarshal(data, &out) != nil || len(out["ablation"]) != 12 {
				t.Errorf("run %q = %v: -json holds %s, want the 12 ablation rows", tc.args, err, data)
			}
			continue
		}
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("run %q = %v, want an error containing %q", tc.args, err, w)
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("run %q ran experiments before failing:\n%s", tc.args, stdout.String())
		}
	}
}

// TestRunProfilesAndOverrides runs the simulation-free Table II with the
// profiling flags and every parameter override set: both profiles are
// written and the table still prints.
func TestRunProfilesAndOverrides(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stdout bytes.Buffer
	args := []string{"-run", "tableII", "-pairs", "2", "-quads", "1", "-seed", "3", "-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() == 0 {
		t.Error("Table II printed nothing")
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v", path, err)
		}
	}
}
