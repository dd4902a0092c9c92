// Command bench is the repository's benchmark: eight named workloads over
// the cycle engine, the estimation endpoint, the job daemon and the fleet
// scheduler, each reporting the same five end-to-end metrics from an
// untraced run and, with -trace 1, per-layer metrics from a traced run in
// which the bench times its own calls into each layer's exported functions.
//
//	go run ./bench -seed 1                       # all workloads, one child process each
//	go run ./bench -seed 1 -trace 1              # ... plus the traced run of each
//	go run ./bench -workload est-single -seed 1 -seconds 6 -trace 0
//	go run ./bench compare a.json b.json         # A/B two suite reports
//
// Run it from the repository root. See README.md for the metric tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// outDir receives the suite report, per-child reports and span traces.
const outDir = "bench/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload in this process; empty runs all, each in a child process")
		seed    = fs.Uint64("seed", 1, "seed for kernel mixes, job seeds, arrivals and simulations")
		seconds = fs.Float64("seconds", refSeconds, "measured budget per workload; fixed work counts scale with it")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		out     = fs.String("out", "", "write the full JSON report here (suite default "+outDir+"/run.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file] | bench compare a.json b.json")
		return 2
	}
	if *name == "" {
		return runSuite(*seed, *seconds, *trace == 1, *out, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	p := &params{seed: *seed, seconds: *seconds, sz: sizesFor(*seconds, *trace == 1, clientCount())}
	if *trace == 1 {
		p.tr = newTracer()
	}
	rep, err := runWorkload(w, p)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	if p.tr != nil {
		if err := p.tr.write(filepath.Join(outDir, "trace-"+w.Name+".json"), w.Name); err != nil {
			fmt.Fprintf(stderr, "bench: %s: write trace: %v\n", w.Name, err)
			return 1
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	rep.print(stdout)
	if !rep.Correct {
		for _, f := range rep.Failures {
			fmt.Fprintf(stderr, "bench: %s: FAILED %s\n", w.Name, f)
		}
		return 1
	}
	return 0
}

// clientCount is the closed-loop client count: two, or one on a single-CPU
// box, so load never exceeds nproc.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// params is what a workload run receives: generated inputs come from seed,
// sizes from sz, and tr is non-nil exactly in the traced run.
type params struct {
	seed    uint64
	seconds float64 // the -seconds budget sz was scaled to, for the report
	sz      sizes
	tr      *tracer
}

func (p *params) traced() bool { return p.tr != nil }

// metricValue is one reported figure.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	IQRPct  float64 `json:"iqr_pct,omitempty"` // spread over the phase's segments
	Samples int     `json:"samples,omitempty"` // operations behind a percentile
	// Segments are the per-segment values Value is the median of; compare
	// pairs them across two runs of the same generated work.
	Segments []float64 `json:"segments,omitempty"`
}

// report is everything one workload run produced.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Digests are SHA-256 of simulated outputs (sim.Result JSON, fleet
	// allocation CSV); they repeat exactly for a fixed seed and size.
	Digests  map[string]string `json:"digests"`
	Sizes    sizes             `json:"sizes"`
	Failures []string          `json:"failures,omitempty"`
}

func newReport(name string, p *params) *report {
	r := &report{
		Workload: name, Seed: p.seed, Seconds: p.seconds, Sizes: p.sz,
		Metrics: map[string]metricValue{}, Digests: map[string]string{},
	}
	if p.traced() {
		r.Trace = 1
	}
	return r
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, s := range endToEnd {
		m[s.Name] = s.Unit
	}
	for _, s := range perLayer {
		m[s.Name] = s.Unit
	}
	return m
}()

// set records a metric; the name must be one of the specs.
func (r *report) set(name string, v float64) { r.setStat(name, stat{Value: v}) }

func (r *report) setStat(name string, st stat) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not in spec.go")
	}
	if math.IsNaN(st.Value) || math.IsInf(st.Value, 0) {
		r.failf("metric %s is %v", name, st.Value)
		st.Value = 0
	}
	r.Metrics[name] = metricValue{Value: st.Value, Unit: unit, IQRPct: st.IQRPct, Samples: st.N, Segments: st.Segments}
}

// setPhase records what a measured phase showed. The untraced run reports
// the end-to-end figures of its phase. The traced run measured the phase
// twice — plain, then with timers and spans on — and reports the plain
// phase's tail, what tracing cost the headline figure, and the spread over
// the plain phase's segments; it returns the traced phase's p50 in µs, the
// figure layer times are subtracted from.
func (r *report) setPhase(p *params, plain, traced []op) (tracedP50 float64) {
	perS, p50, p99 := summarize(plain)
	if !p.traced() {
		r.setStat("work_per_s", perS)
		r.setStat("op_p50_us", p50)
		return p50.Value
	}
	tracedPerS, tp50, _ := summarize(traced)
	r.setStat("op_p99_us", p99)
	r.set("bench.trace_overhead_pct", (perS.Value-tracedPerS.Value)/perS.Value*100)
	r.set("bench.segments_iqr_pct", perS.IQRPct)
	return tp50.Value
}

// failf records a failed correctness check; it counts as a failed operation.
func (r *report) failf(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runWorkload runs w and closes the report: the untraced run must have set
// every end-to-end metric to a non-zero value; the traced run holds the
// per-layer metrics this workload measures.
func runWorkload(w *workload, p *params) (*report, error) {
	rep, err := w.run(w.Name, p)
	if err != nil {
		return nil, err
	}
	if !p.traced() {
		rep.set("peak_rss_mb", peakRSSMB())
		for _, s := range endToEnd {
			if rep.Metrics[s.Name].Value == 0 {
				rep.failf("end-to-end metric %s missing or zero", s.Name)
			}
		}
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// print writes one "workload metric value unit" line per measured metric,
// then the one-line JSON result the driver reads. That line carries every
// metric of the mode: a layer this workload does not measure reads 0.
func (r *report) print(w io.Writer) {
	specs := endToEnd
	if r.Trace == 1 {
		specs = perLayer
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]wire{}
	for _, s := range specs {
		m, measured := r.Metrics[s.Name]
		metrics[s.Name] = wire{m.Value, s.Unit}
		if !measured {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s", r.Workload, s.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if len(m.Segments) > 0 {
			line += fmt.Sprintf(" (iqr %.2f%% over %d segments, n=%d)", m.IQRPct, len(m.Segments), m.Samples)
		}
		fmt.Fprintln(w, line)
	}
	keys := make([]string, 0, len(r.Digests))
	for k := range r.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s digest %s %s\n", r.Workload, k, r.Digests[k])
	}
	last, _ := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Fprintf(w, "%s\n", last)
}

// peakRSSMB is the process's peak resident set (VmHWM), 0 where /proc is
// not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// envStamp records where and how a suite report was measured.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func stampEnv() envStamp {
	e := envStamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// suiteEntry is one workload's pair of runs in a suite report.
type suiteEntry struct {
	Name     string  `json:"name"`
	Why      string  `json:"why"`
	Work     string  `json:"work"`
	Op       string  `json:"op"`
	EndToEnd *report `json:"end_to_end"`
	Layers   *report `json:"layers,omitempty"`
}

// suiteReport is the file `go run ./bench` writes and compare reads.
type suiteReport struct {
	Env       envStamp     `json:"env"`
	Seed      uint64       `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Workloads []suiteEntry `json:"workloads"`
}

// runSuite runs every workload in a child process of its own, so peak RSS,
// heap and GC state do not leak from one workload into the next.
func runSuite(seed uint64, seconds float64, trace bool, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if out == "" {
		out = filepath.Join(outDir, "run.json")
	}
	suite := suiteReport{Env: stampEnv(), Seed: seed, Seconds: seconds}
	code := 0
	child := func(name string, traceFlag int) *report {
		tmp := filepath.Join(outDir, fmt.Sprintf(".%s-trace%d.json", name, traceFlag))
		defer os.Remove(tmp)
		cmd := exec.Command(exe,
			"-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(traceFlag), "-out", tmp)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s (trace %d): %v\n", name, traceFlag, err)
			code = 1
		}
		var rep report
		data, err := os.ReadFile(tmp)
		if err == nil {
			err = json.Unmarshal(data, &rep)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s (trace %d): no report: %v\n", name, traceFlag, err)
			code = 1
			return nil
		}
		return &rep
	}
	for _, w := range workloads {
		e := suiteEntry{Name: w.Name, Why: w.Why, Work: w.Work, Op: w.Op}
		e.EndToEnd = child(w.Name, 0)
		if trace {
			e.Layers = child(w.Name, 1)
		}
		suite.Workloads = append(suite.Workloads, e)
	}
	if err := writeJSON(out, suite); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "bench: wrote %s\n", out)
	return code
}
