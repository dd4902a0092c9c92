package main

import (
	"io"
	"strings"
	"testing"
)

const sampleCover = `ok  	dasesim	12.345s	coverage: 81.2% of statements
ok  	dasesim/internal/dram	0.10s	coverage: 90.0% of statements
ok  	dasesim/internal/ring	(cached)	coverage: 100.0% of statements
	dasesim/cmd/dased		coverage: 0.0% of statements
?   	dasesim/internal/stub	[no test files]
FAIL	dasesim/internal/broken	0.01s
`

func TestParseCover(t *testing.T) {
	got, err := parseCover(strings.NewReader(sampleCover), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The whitespace-led dased line is the form `go test -cover` emits
	// for packages with no test files; it must be parsed, not skipped, or
	// such packages escape the ratchet entirely.
	want := map[string]float64{
		"dasesim":               81.2,
		"dasesim/internal/dram": 90.0,
		"dasesim/internal/ring": 100.0,
		"dasesim/cmd/dased":     0.0,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for pkg, cov := range want {
		if got[pkg] != cov {
			t.Errorf("%s parsed as %.1f, want %.1f", pkg, got[pkg], cov)
		}
	}
}

func TestParseCoverRejectsStreamsWithoutCoverage(t *testing.T) {
	_, err := parseCover(strings.NewReader("ok  	dasesim	1.0s\n"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no coverage lines") {
		t.Fatalf("expected a no-coverage-lines error, got %v", err)
	}
}

func TestCheckEnforcesFloors(t *testing.T) {
	floors := map[string]float64{"a": 80.0, "b": 90.0, "gone": 50.0}
	current := map[string]float64{
		"a": 79.0, // within the 2-point margin: fine
		"b": 85.0, // 5 points below: failure
		// "gone" missing entirely: failure
	}
	failures := check(current, floors, 2.0)
	if len(failures) != 2 {
		t.Fatalf("got %d failures %v, want 2", len(failures), failures)
	}
	joined := strings.Join(failures, "\n")
	if !strings.Contains(joined, "b:") || !strings.Contains(joined, "gone:") {
		t.Errorf("failures name the wrong packages: %v", failures)
	}
	if strings.Contains(joined, "a:") {
		t.Errorf("package within the margin reported as a failure: %v", failures)
	}
}

func TestCheckFailsUnlistedPackages(t *testing.T) {
	// A package present in the run but absent from the ratchet must fail:
	// packages added after the ratchet file was written used to be silently
	// skipped, leaving their coverage unenforced forever.
	floors := map[string]float64{"a": 80.0}
	current := map[string]float64{"a": 85.0, "newpkg": 95.0, "newmain": 0.0}
	failures := check(current, floors, 2.0)
	if len(failures) != 2 {
		t.Fatalf("got %d failures %v, want 2 unlisted-package failures", len(failures), failures)
	}
	joined := strings.Join(failures, "\n")
	if !strings.Contains(joined, "newpkg:") || !strings.Contains(joined, "newmain:") {
		t.Errorf("failures name the wrong packages: %v", failures)
	}
	if !strings.Contains(joined, "no ratchet floor") {
		t.Errorf("unlisted failure lacks guidance: %v", failures)
	}
}

func TestCheckPassesWhenAtOrAboveFloors(t *testing.T) {
	floors := map[string]float64{"a": 80.0}
	if failures := check(map[string]float64{"a": 82.5}, floors, 2.0); len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestUpdateFloorsOnlyMovesUp(t *testing.T) {
	floors := map[string]float64{"a": 80.0, "b": 90.0}
	current := map[string]float64{"a": 85.0, "b": 70.0, "new": 60.0}
	got := updateFloors(current, floors)
	if got["a"] != 85.0 {
		t.Errorf("improved package floor = %.1f, want raised to 85.0", got["a"])
	}
	if got["b"] != 90.0 {
		t.Errorf("regressed package floor = %.1f, want unchanged 90.0", got["b"])
	}
	if got["new"] != 60.0 {
		t.Errorf("new package floor = %.1f, want seeded at 60.0", got["new"])
	}
}
