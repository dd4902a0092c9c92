// Command dasetrace renders DASE traces as a per-application
// estimated-vs-actual slowdown error timeline: one row per estimation
// interval with the estimate, the signed relative error against the
// measured whole-run slowdown, and an ASCII error bar.
//
// Every trace the repository writes is NDJSON (telemetry.WriteNDJSON):
// dased's GET /v1/jobs/{id}/trace, the <id>.trace.ndjson files of dased
// -trace-dir, and fleetsim -trace. All of them parse; fleetsim's carry
// fleet events only, no dase.app estimates, so they have no timeline.
//
// The input is validated strictly: a schema-invalid stream (unknown event
// kind or unknown field) exits non-zero with the offending line instead of
// rendering a partial timeline.
//
// Usage:
//
//	dasetrace traces/<id>.trace.ndjson
//	curl -s localhost:8844/v1/jobs/<id>/trace | dasetrace
//	dasetrace -actual 1.8,2.4 trace.ndjson    # override the ground truth
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"dasesim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "dasetrace: %v\n", err)
		os.Exit(1)
	}
}

// run reads one NDJSON trace (the file named by the only argument, or stdin)
// and prints its error timeline on stdout. Flag errors are reported before
// any input is read.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dasetrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	actualFlag := fs.String("actual", "", "comma-separated measured slowdowns per app, overriding the trace's slowdown.actual events")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return errors.New("at most one trace file")
	}
	actuals, err := parseActuals(*actualFlag)
	if err != nil {
		return err
	}
	in := stdin
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	events, err := telemetry.ReadNDJSONStrict(in)
	if err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	out, err := render(events, actuals)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, out)
	return err
}

// parseActuals parses the -actual override ("1.8,2.4" → per-app slowdowns).
func parseActuals(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -actual entry %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// render builds the error-timeline report. actuals, when non-nil, replaces
// the trace's slowdown.actual ground truth (entry i applies to app i).
func render(events []telemetry.Event, actuals []float64) (string, error) {
	if actuals != nil {
		// Strip recorded actuals and append the overrides so ErrorTimeline
		// sees exactly the ground truth the user asked for.
		kept := events[:0:0]
		for _, e := range events {
			if e.Kind != telemetry.KindActual {
				kept = append(kept, e)
			}
		}
		for i, a := range actuals {
			kept = append(kept, telemetry.Event{
				Kind: telemetry.KindActual, App: int32(i), SM: -1, Actual: a,
			})
		}
		events = kept
	}
	timelines := telemetry.ErrorTimeline(events)
	if len(timelines) == 0 {
		return "", fmt.Errorf("no dase.app events in trace (was the job traced and run under a DASE policy or with slowdowns?)")
	}
	var sb strings.Builder
	for _, tl := range timelines {
		fmt.Fprintf(&sb, "app %d", tl.App)
		if tl.Actual > 0 {
			fmt.Fprintf(&sb, "  actual slowdown %.3f  mean|err| %s  max|err| %s",
				tl.Actual, pct(tl.MeanAbsErr()), pct(tl.MaxAbsErr()))
		} else {
			sb.WriteString("  (no measured slowdown; errors unavailable)")
		}
		sb.WriteByte('\n')
		fmt.Fprintf(&sb, "  %12s  %8s  %8s  %4s  %s\n", "cycle", "est", "err", "mbb", "")
		for _, p := range tl.Points {
			mbb := ""
			if p.MBB {
				mbb = "mbb"
			}
			fmt.Fprintf(&sb, "  %12d  %8.3f  %8s  %4s  %s\n",
				p.Cycle, p.Est, pct(p.Err), mbb, errBar(p.Err))
		}
	}
	return sb.String(), nil
}

// pct renders a relative error as a signed percentage ("-" when unknown).
func pct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", v*100)
}

// errBar draws a signed error bar around a center line: '<' for
// underestimation, '>' for overestimation, one character per 5% up to ±50%.
func errBar(err float64) string {
	if math.IsNaN(err) {
		return ""
	}
	n := int(math.Round(math.Abs(err) / 0.05))
	if n > 10 {
		n = 10
	}
	switch {
	case n == 0:
		return "|"
	case err < 0:
		return strings.Repeat("<", n) + "|"
	default:
		return "|" + strings.Repeat(">", n)
	}
}
