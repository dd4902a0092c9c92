// Command covcheck enforces the coverage ratchet: it reads `go test -cover`
// output on stdin, extracts per-package statement coverage, and compares it
// against the committed floor in coverage_ratchet.json. Coverage may only
// move up (minus a small noise margin); a change that drops a package below
// its recorded floor fails CI until either tests are added or the drop is
// consciously committed with -update.
//
// Usage:
//
//	go test -short -cover ./... | go run ./scripts/covcheck -ratchet coverage_ratchet.json
//	go test -short -cover ./... | go run ./scripts/covcheck -ratchet coverage_ratchet.json -update
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// coverLine matches `go test -cover` package result lines, e.g.
//
//	ok  	dasesim/internal/dram	0.123s	coverage: 85.1% of statements
//
// Cached runs ("(cached)" instead of a duration) match too.
var coverLine = regexp.MustCompile(`^ok\s+(\S+)\s+\S+(?:\s+\(cached\))?\s+coverage: ([\d.]+)% of statements`)

// noTestLine matches the coverage line `go test -cover` prints for a package
// with no test files — whitespace-led, no "ok" prefix:
//
//	\tdasesim/cmd/dased\t\tcoverage: 0.0% of statements
//
// These packages must be parsed too: a package invisible to the ratchet is a
// package whose coverage can silently rot.
var noTestLine = regexp.MustCompile(`^\s+(\S+)\s+coverage: ([\d.]+)% of statements`)

// parseCover extracts package → coverage percent from a `go test -cover`
// stream, echoing each line to echo. Both result forms count: normal "ok"
// lines and the whitespace-led lines of packages with no test files.
func parseCover(r io.Reader, echo io.Writer) (map[string]float64, error) {
	got := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := coverLine.FindStringSubmatch(line)
		if m == nil {
			m = noTestLine.FindStringSubmatch(line)
		}
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad coverage value on %q: %w", line, err)
		}
		got[m[1]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read test output: %w", err)
	}
	if len(got) == 0 {
		return nil, fmt.Errorf("no coverage lines found (did you pass -cover?)")
	}
	return got, nil
}

// check compares current coverage against the ratchet floors. A package may
// sit up to margin points below its floor (run-to-run noise from timing-
// dependent paths); anything lower is a failure. Packages missing from the
// current run but present in the ratchet fail too — deleting tests must not
// silently drop a floor. And the reverse direction is enforced as well: a
// package the run reports but the ratchet does not list fails, so a package
// added after the ratchet file was written cannot silently escape coverage
// enforcement forever.
func check(current, floors map[string]float64, margin float64) []string {
	var failures []string
	pkgs := make([]string, 0, len(floors))
	for pkg := range floors {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		floor := floors[pkg]
		cov, ok := current[pkg]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: no coverage reported (floor %.1f%%)", pkg, floor))
			continue
		}
		if cov < floor-margin {
			failures = append(failures, fmt.Sprintf("%s: coverage %.1f%% fell below floor %.1f%% (margin %.1f)", pkg, cov, floor, margin))
		}
	}
	unlisted := make([]string, 0)
	for pkg := range current {
		if _, ok := floors[pkg]; !ok {
			unlisted = append(unlisted, pkg)
		}
	}
	sort.Strings(unlisted)
	for _, pkg := range unlisted {
		failures = append(failures, fmt.Sprintf("%s: coverage %.1f%% but the package has no ratchet floor (add one with -update or by hand)", pkg, current[pkg]))
	}
	return failures
}

// updateFloors merges the current run into the ratchet: floors only move up,
// and packages seen for the first time get today's value as their floor.
func updateFloors(current, floors map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(current))
	for pkg, floor := range floors {
		out[pkg] = floor
	}
	for pkg, cov := range current {
		if cov > out[pkg] {
			out[pkg] = cov
		}
	}
	return out
}

func main() {
	ratchetPath := flag.String("ratchet", "coverage_ratchet.json", "committed coverage floor file")
	update := flag.Bool("update", false, "raise the ratchet to the current run's coverage and rewrite the file")
	margin := flag.Float64("margin", 2.0, "allowed points below the floor before failing (run noise)")
	flag.Parse()

	current, err := parseCover(os.Stdin, os.Stdout)
	if err != nil {
		fatal("%v", err)
	}

	floors := map[string]float64{}
	if data, err := os.ReadFile(*ratchetPath); err == nil {
		if err := json.Unmarshal(data, &floors); err != nil {
			fatal("parse %s: %v", *ratchetPath, err)
		}
	} else if !os.IsNotExist(err) || !*update {
		fatal("read %s: %v", *ratchetPath, err)
	}

	if *update {
		merged := updateFloors(current, floors)
		data, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		if err := os.WriteFile(*ratchetPath, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *ratchetPath, err)
		}
		fmt.Fprintf(os.Stderr, "covcheck: wrote %s with %d package floors\n", *ratchetPath, len(merged))
		return
	}

	if failures := check(current, floors, *margin); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "covcheck: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "covcheck: %d packages at or above their floors\n", len(floors))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "covcheck: "+format+"\n", args...)
	os.Exit(1)
}
