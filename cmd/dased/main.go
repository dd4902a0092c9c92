// Command dased is the DASE simulation daemon: it serves the simulator as a
// JSON HTTP API with a bounded worker pool, a FIFO job queue, a
// content-addressed result cache, and Prometheus metrics.
//
// Usage:
//
//	dased                          # listen on :8844 with defaults
//	dased -addr :9000 -workers 8 -queue 128
//	dased -config gpu.json -kernels custom.json
//	dased -journal dased.wal -max-retries 3   # crash-safe job journal
//	dased -trace-dir traces -log-format json  # per-job Chrome traces
//
// Cluster mode shards jobs across several daemons by consistent hashing on
// their simulation content address, with heartbeat failure detection,
// journal hand-off from dead nodes, and work-stealing (same -peers string on
// every node; -journal names a shared directory, one <node-id>.wal per
// node):
//
//	dased -node-id n1 -peers n1=http://h1:8844,n2=http://h2:8844,n3=http://h3:8844 \
//	      -journal /shared/dased -addr :8844
//
// Each node serves its own /metrics (cluster RPC latency and peer state
// included); scrape every node. With -trace-events each node also serves its
// cluster-layer spans at GET /cluster/v1/trace, and cmd/dasetrace merges
// those NDJSON dumps into one cross-node timeline.
//
// Example session:
//
//	curl -s localhost:8844/v1/jobs -d '{"kernels":["SB","SD"],"slowdowns":true}'
//	curl -s localhost:8844/v1/jobs/job-1?wait_ms=30000
//	curl -s localhost:8844/v1/jobs/job-1/trace?format=ndjson
//	curl -s localhost:8844/metrics
//
// Besides the job API, the daemon serves DASE online: POST /v1/estimate
// answers a counter snapshot (or an array batch) with estimated slowdowns
// and a recommended SM partition without running a simulation, and
// POST /v1/estimate/stream does the same over an NDJSON request/response
// stream. The repository benchmark (go run ./bench, workloads est-single and
// est-batch16) measures the endpoint closed-loop; cmd/daseload adds an
// open-loop load generator against a running daemon.
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains queued and running
// jobs (bounded by -drain-grace).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dasesim"
	"dasesim/internal/cluster"
	"dasesim/internal/server"
)

// parsePeers decodes the -peers flag: comma-separated id=url pairs.
func parsePeers(s string) (map[string]string, error) {
	peers := map[string]string{}
	for _, pair := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", pair)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate node %q in -peers", id)
		}
		peers[id] = strings.TrimRight(url, "/")
	}
	return peers, nil
}

func main() {
	addr := flag.String("addr", ":8844", "HTTP listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (default: GOMAXPROCS)")
	queueDepth := flag.Int("queue", 64, "job queue depth; beyond it submissions get 429")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job wall-time limit")
	defaultCycles := flag.Uint64("default-cycles", 300_000, "cycle budget for jobs that omit cycles")
	maxCycles := flag.Uint64("max-cycles", 20_000_000, "largest accepted cycle budget")
	cacheEntries := flag.Int("cache", 512, "result-cache capacity in entries")
	journalPath := flag.String("journal", "", "append job lifecycle records to this file and recover from it on startup (cluster mode: a shared directory, one <node-id>.wal per node)")
	maxRetries := flag.Int("max-retries", 2, "retries per job for transient failures (negative disables)")
	shedHighWater := flag.Int("shed-highwater", 0, "queue length at which uncached submissions are shed (0: 3/4 of -queue, negative: off)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "shutdown drain budget before running jobs are hard-cancelled")
	configPath := flag.String("config", "", "load the GPU configuration from this JSON file")
	kernelsPath := flag.String("kernels", "", "load custom kernel profiles from this JSON file")
	snapRetention := flag.Int("snapshot-retention", 0, "interval snapshots kept per result (0: 4096, negative: unlimited)")
	checkInvariants := flag.Bool("check-invariants", false, "run the engine's periodic invariant sweep in every simulation (debug; a violation fails the job)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	traceEvents := flag.Int("trace-events", 0, "per-job trace ring capacity in events; 0 disables tracing unless -trace-dir is set")
	traceDir := flag.String("trace-dir", "", "write each finished job's Chrome trace JSON into this directory (implies tracing)")
	estMinSMs := flag.Int("estimate-min-sms", 0, "minimum SMs per app in recommended partitions (0: 1)")
	estMaxApps := flag.Int("estimate-max-apps", 0, "most apps accepted per estimate snapshot (0: 8)")
	estMaxBody := flag.Int64("estimate-max-body", 0, "largest accepted estimate body/stream line in bytes (0: 1 MiB)")
	nodeID := flag.String("node-id", "", "this node's cluster identity; required with -peers")
	peersFlag := flag.String("peers", "", "cluster peer map as comma-separated id=url pairs including this node; enables cluster mode")
	hbInterval := flag.Duration("heartbeat-interval", time.Second, "cluster heartbeat period; suspicion and death timeouts scale from it")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "dased: unknown -log-format %q (text | json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	opts := server.Options{
		NodeID:            *nodeID,
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		JobTimeout:        *jobTimeout,
		DefaultCycles:     *defaultCycles,
		MaxCycles:         *maxCycles,
		CacheEntries:      *cacheEntries,
		JournalPath:       *journalPath,
		MaxRetries:        *maxRetries,
		ShedHighWater:     *shedHighWater,
		SnapshotRetention: *snapRetention,
		CheckInvariants:   *checkInvariants,
		Logger:            logger,
		TraceEvents:       *traceEvents,
		TraceDir:          *traceDir,
		EstimateMinSMs:    *estMinSMs,
		EstimateMaxApps:   *estMaxApps,
		EstimateMaxBody:   *estMaxBody,
	}
	// In Options, 0 retries means "use the default"; on the command line an
	// explicit 0 means none.
	if *maxRetries == 0 {
		opts.MaxRetries = -1
	}
	clusterMode := *peersFlag != ""
	journalDir := ""
	if clusterMode {
		if *nodeID == "" {
			fatal("cluster init", errors.New("-peers requires -node-id"))
		}
		// In cluster mode -journal names the shared hand-off directory;
		// this node's own journal lives inside it.
		if *journalPath != "" {
			journalDir = *journalPath
			if err := os.MkdirAll(journalDir, 0o755); err != nil {
				fatal("create journal dir", err)
			}
			opts.JournalPath = filepath.Join(journalDir, *nodeID+".wal")
		}
	}
	if *configPath != "" {
		cfg, err := dasesim.LoadConfig(*configPath)
		if err != nil {
			fatal("load config", err)
		}
		opts.Cfg = cfg
	}
	if *kernelsPath != "" {
		catalogue, err := dasesim.LoadKernels(*kernelsPath)
		if err != nil {
			fatal("load kernels", err)
		}
		opts.Catalogue = catalogue
	}

	srv, err := server.New(opts)
	if err != nil {
		fatal("server init", err)
	}
	srv.Start()

	apiHandler := srv.Handler()
	var node *cluster.Node
	if clusterMode {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			fatal("cluster init", err)
		}
		node, err = cluster.New(srv, cluster.Options{
			Self:              *nodeID,
			Peers:             peers,
			HeartbeatInterval: *hbInterval,
			JournalDir:        journalDir,
			Logger:            logger,
			// The cluster layer shares the job tracer's capacity setting: one
			// flag turns on end-to-end tracing, node-local and cross-node.
			TraceEvents: *traceEvents,
		})
		if err != nil {
			fatal("cluster init", err)
		}
		node.Start()
		apiHandler = node.Handler()
		logger.Info("cluster mode", "node", *nodeID, "peers", len(peers), "journal_dir", journalDir)
	}

	if *debugAddr != "" {
		// The profiling endpoints live on their own listener so they are
		// never exposed on the public API address.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	// ReadTimeout covers header + body: job submissions are small JSON
	// documents, so a client that cannot deliver one inside 30s is stalled or
	// hostile. No WriteTimeout — long-poll responses legitimately take up to
	// LongPollMax to produce.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           apiHandler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case err := <-errCh:
		fatal("http server", err)
	case <-ctx.Done():
	}

	logger.Info("shutting down; draining jobs", "grace", *drainGrace)
	grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(grace); err != nil {
		logger.Error("http shutdown failed", "err", err)
	}
	if node != nil {
		node.Stop()
	}
	if err := srv.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("drain failed", "err", err)
	}
	logger.Info("stopped")
}
