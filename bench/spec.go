package main

import "math"

// metricSpec names one metric the runner emits. BENCHMARK.json lists the
// same names, units and directions; bench_test.go fails on drift.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Exact marks a simulated quantity: it repeats bit for bit for a fixed
	// seed and size, so compare checks it for equality, not against a bound.
	Exact bool
}

// endToEnd is what a user of the system sees; every workload reports every
// one of them from its untraced run. What "work" and "op" mean per workload
// is in workloads below and in README.md.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "work_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_us", Unit: "us", Better: "lower"},
}

// perLayer comes from the traced run. A workload reports 0 for a layer it
// does not measure.
var perLayer = []metricSpec{
	// Simulated results of the sim-* and fleet-* runs.
	{Name: "dase_err_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "unfairness", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "fleet_jain", Unit: "ratio", Better: "higher", Exact: true},

	// The tail of the untraced phase's operation latencies. It is a user's
	// metric, but on the reference box it does not repeat within any bound
	// the contract allows (README.md, "Noise"), so it is reported unbounded.
	{Name: "op_p99_us", Unit: "us", Better: "lower"},

	// Cycle engine (sim-*).
	{Name: "sim.step_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.allocs_per_kcycle", Unit: "count", Better: "lower"},
	{Name: "sim.bytes_per_kcycle", Unit: "B", Better: "lower"},
	{Name: "sim.ipc", Unit: "1/cycle", Better: "higher", Exact: true},
	{Name: "sim.bw_util", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "smcore.cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "smcore.share", Unit: "ratio", Better: "lower"},
	{Name: "smcore.issued", Unit: "count", Better: "higher", Exact: true},
	{Name: "dram.cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "dram.share", Unit: "ratio", Better: "lower"},
	{Name: "dram.reqs", Unit: "count", Better: "higher", Exact: true},
	{Name: "dram.row_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "cache.access_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.share", Unit: "ratio", Better: "lower"},
	{Name: "cache.l2_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "icnt.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "icnt.share", Unit: "ratio", Better: "lower"},
	{Name: "sched.policy_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.reallocations", Unit: "count", Better: "lower", Exact: true},

	// Estimation endpoint (est-*).
	{Name: "net.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "server.estimate_handler_ns", Unit: "ns", Better: "lower"},
	{Name: "server.overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "server.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "estimate.process_ns", Unit: "ns", Better: "lower"},
	{Name: "estimate.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "estimate.body_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "estimate.resp_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "estimate.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "core.estimate_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.search_ns", Unit: "ns", Better: "lower"},

	// Job daemon (jobs-*).
	{Name: "server.submit_ns", Unit: "ns", Better: "lower"},
	{Name: "server.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.run_ms", Unit: "ms", Better: "lower"},
	{Name: "server.retries", Unit: "count", Better: "lower"},
	{Name: "server.result_encode_us", Unit: "us", Better: "lower"},
	{Name: "server.result_bytes", Unit: "B", Better: "lower"},
	{Name: "server.cold_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "simcache.key_ns", Unit: "ns", Better: "lower"},
	{Name: "simcache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "simcache.hit_ratio", Unit: "ratio", Better: "higher", Exact: true},

	// Fleet scheduler (fleet-*).
	{Name: "fleet.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.engine_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.engine_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.engine_share", Unit: "ratio", Better: "lower"},
	{Name: "fleet.sched_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.jobs_done", Unit: "count", Better: "higher", Exact: true},
	{Name: "fleet.idle_sm_intervals", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.summarize_ms", Unit: "ms", Better: "lower"},

	// The instrument itself (all workloads).
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.client_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.segments_iqr_pct", Unit: "%", Better: "lower"},
}

// workload is one named set of inputs. Work and Op say what work_per_s
// counts and what op_p50_us (and the traced run's op_p99_us) time on this
// workload.
type workload struct {
	Name, Why string
	Work, Op  string
	run       func(name string, p *params) (*report, error)
}

var workloads = []workload{
	{
		Name: "sim-mem2", Work: "simulated cycles", Op: "1,000-cycle slice of GPU.Run",
		Why: "memory-bound SB+SD pair on a static 8/8 split: DRAM, L2 and crossbar time dominate the cycle engine",
		run: runSim,
	},
	{
		Name: "sim-cmp4-fair", Work: "simulated cycles", Op: "1,000-cycle slice of GPU.Run",
		Why: "compute-leaning CT+QR+SN+BG under DASE-Fair: SM issue dominates and the policy reallocates SMs mid-run",
		run: runSim,
	},
	{
		Name: "est-single", Work: "snapshots estimated", Op: "POST /v1/estimate round trip",
		Why: "one 2-app snapshot per request, closed loop: per-request HTTP and codec cost dominates, the model does not",
		run: runEst,
	},
	{
		Name: "est-batch16", Work: "snapshots estimated", Op: "POST /v1/estimate round trip",
		Why: "sixteen 4-app snapshots per request, closed loop: DASE and the 455-partition search dominate, HTTP is amortised",
		run: runEst,
	},
	{
		Name: "jobs-cold", Work: "jobs submitted and fetched", Op: "POST /v1/jobs to result fetched",
		Why: "distinct content addresses, so every job simulates: worker-pool scaling and dased overhead over a direct run",
		run: runJobs,
	},
	{
		Name: "jobs-hit", Work: "jobs submitted and fetched", Op: "POST /v1/jobs to result fetched",
		Why: "the same requests resubmitted, so every job is a simcache hit: admission, job table, queue and result encode",
		run: runJobs,
	},
	{
		Name: "fleet-model", Work: "fleet jobs completed", Op: "Fleet.Tick",
		Why: "16 GPUs and 4 tenants on the closed-form engine: placement, DASE-scored packing, repartition and history",
		run: runFleet,
	},
	{
		Name: "fleet-sim", Work: "fleet jobs completed", Op: "Fleet.Tick",
		Why: "4 GPUs and 3 tenants on the cycle engine: interval simulations dominate, fleet logic should not show",
		run: runFleet,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// refSeconds is the budget the reference sizes below are quoted for; a run
// with another -seconds scales every work count linearly.
const refSeconds = 6

// sizes holds every work count, duration and client count of a run. It is
// written to the report verbatim so a number can be traced to its load.
type sizes struct {
	Setups  int `json:"setups"`  // timed repetitions of set-up (median reported)
	Clients int `json:"clients"` // closed-loop client goroutines

	SimSliceCycles   uint64 `json:"sim_slice_cycles"`
	SimAloneCycles   uint64 `json:"sim_alone_cycles"`
	SimMem2Cycles    uint64 `json:"sim_mem2_cycles"`
	SimCmp4Cycles    uint64 `json:"sim_cmp4_cycles"`
	LayerReplayCycle uint64 `json:"layer_replay_cycles"`

	WarmupSeconds        float64 `json:"warmup_seconds"`
	MeasureSeconds       float64 `json:"measure_seconds"`
	CorpusSnapshots      int     `json:"corpus_snapshots"`
	CorpusIntervalCycles uint64  `json:"corpus_interval_cycles"`
	CorpusSnapsPerSim    int     `json:"corpus_snapshots_per_sim"`
	CheckEvery           int     `json:"check_every"`
	LayerSamples         int     `json:"layer_samples"`

	ColdJobs       int    `json:"cold_jobs"`
	ColdDirectEach int    `json:"cold_direct_every"`
	HitJobs        int    `json:"hit_jobs"`
	JobCycles      uint64 `json:"job_cycles"`

	FleetModelIntervals int `json:"fleet_model_intervals"`
	FleetModelPrefix    int `json:"fleet_model_prefix"`
	FleetSimIntervals   int `json:"fleet_sim_intervals"`
	FleetSimPrefix      int `json:"fleet_sim_prefix"`
}

// sizesFor returns the frozen reference sizes scaled to a budget of seconds.
// The traced run measures twice (timers off, then on), so it halves the
// budget and sets up once.
func sizesFor(seconds float64, trace bool, clients int) sizes {
	setups := 3
	if trace {
		seconds /= 2
		setups = 1
	}
	k := seconds / refSeconds
	scale := func(ref int, min int) int {
		n := int(math.Round(float64(ref) * k))
		if n < min {
			n = min
		}
		return n
	}
	intervals := func(refCycles uint64) uint64 {
		return uint64(scale(int(refCycles/50_000), 2)) * 50_000
	}
	return sizes{
		Setups:  setups,
		Clients: clients,

		SimSliceCycles:   1_000,
		SimAloneCycles:   300_000,
		SimMem2Cycles:    intervals(2_400_000),
		SimCmp4Cycles:    intervals(3_000_000),
		LayerReplayCycle: 200_000,

		WarmupSeconds:        1,
		MeasureSeconds:       seconds,
		CorpusSnapshots:      256,
		CorpusIntervalCycles: 5_000,
		CorpusSnapsPerSim:    16,
		CheckEvery:           64,
		LayerSamples:         20_000,

		ColdJobs:       scale(48, 4),
		ColdDirectEach: 8,
		HitJobs:        16,
		JobCycles:      100_000,

		FleetModelIntervals: scale(50_000, 100),
		FleetModelPrefix:    2_000,
		FleetSimIntervals:   scale(32, 5),
		FleetSimPrefix:      4,
	}
}
