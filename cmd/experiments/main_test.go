package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestRunListAndErrors(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-list"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(order, "\n") + "\n"; stdout.String() != want {
		t.Errorf("-list printed:\n%s\nwant:\n%s", stdout.String(), want)
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		// A typo used to run nothing and exit 0.
		{[]string{"-run", "tableII,fig99"}, []string{`unknown experiment "fig99"`, strings.Join(order, ", ")}},
		{[]string{"-bogus"}, []string{"-bogus"}},
		{[]string{"-run", "tableII", "-cache-dir", filepath.Join(file, "cache")}, []string{"cache dir"}},
	} {
		stdout.Reset()
		err := run(tc.args, &stdout, io.Discard)
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
