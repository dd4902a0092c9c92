package server

import (
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"dasesim/internal/telemetry"
)

// Metrics aggregates the daemon's observability signals on a
// telemetry.Registry: counters and histograms updated by job workers without
// contention, plus scrape-time callbacks mirroring live state (queue depth,
// cache fill). Exposed names are stable across the move from
// the old hand-rolled exposition code; the dased_job_wall_seconds summary
// became the dased_job_duration_seconds histogram.
type Metrics struct {
	start time.Time
	reg   *telemetry.Registry

	jobsSubmitted *telemetry.Counter
	jobsCompleted *telemetry.Counter
	jobsFailed    *telemetry.Counter
	jobsCanceled  *telemetry.Counter
	jobsRejected  *telemetry.Counter // queue-full 429s
	jobsShed      *telemetry.Counter // admission control: non-cached work refused over the high-water mark
	jobsRunning   *telemetry.Gauge

	simCycles *telemetry.Counter // cycles actually simulated (cache hits excluded)

	queueWait   *telemetry.Histogram // submission to first execution
	jobDuration *telemetry.Histogram // wall time of finished jobs
	estError    *telemetry.Histogram // |est-actual|/actual per DASE interval

	estRequests *telemetry.Counter   // snapshots served by the online estimation API
	estRejected *telemetry.Counter   // estimation requests refused (malformed or invalid input)
	estLatency  *telemetry.Histogram // per-body estimation service time (transport excluded)
	estBatch    *telemetry.Histogram // snapshots per estimation body
}

func newMetrics(queueDepth func() int, cacheStats func() (uint64, uint64, uint64, int)) *Metrics {
	reg := telemetry.NewRegistry()
	m := &Metrics{start: time.Now(), reg: reg}

	m.jobsSubmitted = reg.Counter("dased_jobs_submitted_total", "Jobs accepted into the queue.")
	m.jobsCompleted = reg.Counter("dased_jobs_completed_total", "Jobs finished successfully.")
	m.jobsFailed = reg.Counter("dased_jobs_failed_total", "Jobs that errored, timed out or panicked.")
	m.jobsCanceled = reg.Counter("dased_jobs_canceled_total", "Jobs canceled by clients.")
	m.jobsRejected = reg.Counter("dased_jobs_rejected_total", "Submissions rejected with 429 (queue full).")
	m.jobsShed = reg.Counter("dased_jobs_shed_total", "Non-cached submissions shed over the queue high-water mark.")
	m.jobsRunning = reg.Gauge("dased_jobs_running", "Jobs currently executing.")

	m.simCycles = reg.Counter("dased_sim_cycles_total", "GPU cycles simulated (cache hits excluded).")

	m.queueWait = reg.Histogram("dased_queue_wait_seconds",
		"Time jobs spent queued before a worker started them.",
		0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60)
	m.jobDuration = reg.Histogram("dased_job_duration_seconds",
		"Wall time of finished jobs.",
		0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60)
	m.estError = reg.Histogram("dased_estimation_error",
		"Per-interval relative error of the DASE slowdown estimate against the measured slowdown.",
		0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1)

	m.estRequests = reg.Counter("dased_estimate_requests_total", "Counter snapshots estimated by the online API.")
	m.estRejected = reg.Counter("dased_estimate_rejected_total", "Estimation requests rejected for malformed or invalid input.")
	m.estLatency = reg.Histogram("dased_estimate_latency_seconds",
		"Service time of one estimation body, decode to encode (HTTP transport excluded).",
		0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.001, 0.005)
	m.estBatch = reg.Histogram("dased_estimate_batch_size",
		"Snapshots per estimation request body.",
		1, 2, 4, 8, 16, 32, 64)

	reg.GaugeFunc("dased_queue_depth", "Jobs waiting in the queue.",
		func() float64 { return float64(queueDepth()) })
	reg.CounterFunc("dased_cache_hits_total", "Result-cache lookups served without simulating.",
		func() float64 { h, _, _, _ := cacheStats(); return float64(h) })
	reg.CounterFunc("dased_cache_misses_total", "Result-cache lookups that simulated.",
		func() float64 { _, mi, _, _ := cacheStats(); return float64(mi) })
	reg.CounterFunc("dased_cache_evictions_total", "Result-cache entries evicted by the size bound.",
		func() float64 { _, _, e, _ := cacheStats(); return float64(e) })
	reg.GaugeFunc("dased_cache_entries", "Resident result-cache entries.",
		func() float64 { _, _, _, n := cacheStats(); return float64(n) })
	reg.GaugeFunc("dased_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(m.start).Seconds() })

	buildInfo := reg.GaugeVec("dased_build_info",
		"Build metadata; the value is always 1.",
		"go_version", "module_version", "gomaxprocs")
	buildInfo.With(runtime.Version(), moduleVersion(), strconv.Itoa(runtime.GOMAXPROCS(0))).Set(1)

	return m
}

// moduleVersion reports the main module's version from the embedded build
// info ("(devel)" for plain go-build binaries, "unknown" in tests).
func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// observeJob records one finished job's wall time.
func (m *Metrics) observeJob(d time.Duration) {
	m.jobDuration.Observe(d.Seconds())
}

// WritePrometheus renders all metrics in Prometheus text format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.reg.WritePrometheus(w)
}
