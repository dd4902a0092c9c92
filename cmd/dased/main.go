// Command dased is the DASE simulation daemon: it serves the simulator as a
// JSON HTTP API with a bounded worker pool, a FIFO job queue, a
// content-addressed result cache, and Prometheus metrics.
//
// Usage:
//
//	dased                          # listen on :8844 with defaults
//	dased -addr :9000 -workers 8 -queue 128
//	dased -addr 127.0.0.1:0        # a free port; the bound address is logged
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
// and a recommended SM partition without running a simulation. The
// repository benchmark (go run ./bench, workloads est-single and
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
	"io"
	"log/slog"
	"net"
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
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dased: %v\n", err)
		os.Exit(1)
	}
}

// run serves until ctx is done, then drains queued and running jobs and
// returns nil. Bad flags and startup failures return an error. Logs go to
// stderr.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("dased", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr            = fs.String("addr", ":8844", "HTTP listen address; port 0 picks a free port (the bound address is logged)")
		workers         = fs.Int("workers", 0, "simulation worker pool size (default: GOMAXPROCS)")
		queueDepth      = fs.Int("queue", 64, "job queue depth; beyond it submissions get 429")
		jobTimeout      = fs.Duration("job-timeout", 2*time.Minute, "per-job wall-time limit")
		maxCycles       = fs.Uint64("max-cycles", 20_000_000, "largest accepted cycle budget")
		journalPath     = fs.String("journal", "", "append job lifecycle records to this file and recover from it on startup (cluster mode: a shared directory, one <node-id>.wal per node)")
		maxRetries      = fs.Int("max-retries", 2, "retries per job for transient failures (negative disables)")
		shedHighWater   = fs.Int("shed-highwater", 0, "queue length at which uncached submissions are shed (0: 3/4 of -queue, negative: off)")
		drainGrace      = fs.Duration("drain-grace", 30*time.Second, "shutdown drain budget before running jobs are hard-cancelled")
		configPath      = fs.String("config", "", "load the GPU configuration from this JSON file")
		kernelsPath     = fs.String("kernels", "", "load custom kernel profiles from this JSON file")
		checkInvariants = fs.Bool("check-invariants", false, "run the engine's periodic invariant sweep in every simulation (debug; a violation fails the job)")
		debugAddr       = fs.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		logFormat       = fs.String("log-format", "text", "log output format: text | json")
		traceEvents     = fs.Int("trace-events", 0, "per-job trace ring capacity in events; 0 disables tracing unless -trace-dir is set")
		traceDir        = fs.String("trace-dir", "", "write each finished job's Chrome trace JSON into this directory (implies tracing)")
		nodeID          = fs.String("node-id", "", "this node's cluster identity; required with -peers")
		peersFlag       = fs.String("peers", "", "cluster peer map as comma-separated id=url pairs including this node; enables cluster mode")
		hbInterval      = fs.Duration("heartbeat-interval", time.Second, "cluster heartbeat period; suspicion and death timeouts scale from it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(stderr, nil)
	default:
		return fmt.Errorf("unknown -log-format %q (text | json)", *logFormat)
	}
	logger := slog.New(handler)

	opts := server.Options{
		NodeID:          *nodeID,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		JobTimeout:      *jobTimeout,
		MaxCycles:       *maxCycles,
		JournalPath:     *journalPath,
		MaxRetries:      *maxRetries,
		ShedHighWater:   *shedHighWater,
		CheckInvariants: *checkInvariants,
		Logger:          logger,
		TraceEvents:     *traceEvents,
		TraceDir:        *traceDir,
	}
	// In Options, 0 retries means "use the default"; on the command line an
	// explicit 0 means none.
	if *maxRetries == 0 {
		opts.MaxRetries = -1
	}
	var peers map[string]string
	journalDir := ""
	if *peersFlag != "" {
		if *nodeID == "" {
			return errors.New("-peers requires -node-id")
		}
		var err error
		if peers, err = parsePeers(*peersFlag); err != nil {
			return err
		}
		// In cluster mode -journal names the shared hand-off directory;
		// this node's own journal lives inside it.
		if *journalPath != "" {
			journalDir = *journalPath
			if err := os.MkdirAll(journalDir, 0o755); err != nil {
				return fmt.Errorf("create journal dir: %w", err)
			}
			opts.JournalPath = filepath.Join(journalDir, *nodeID+".wal")
		}
	}
	if *configPath != "" {
		cfg, err := dasesim.LoadConfig(*configPath)
		if err != nil {
			return fmt.Errorf("load config: %w", err)
		}
		opts.Cfg = cfg
	}
	if *kernelsPath != "" {
		catalogue, err := dasesim.LoadKernels(*kernelsPath)
		if err != nil {
			return fmt.Errorf("load kernels: %w", err)
		}
		opts.Catalogue = catalogue
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close() // Shutdown closes it once serving; this covers early returns
	if *debugAddr != "" {
		dbgLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		// The profiling endpoints live on their own listener so they are
		// never exposed on the public API address.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go dbg.Serve(dbgLn) // returns once Close shuts the listener
		defer dbg.Close()
		logger.Info("pprof listening", "addr", dbgLn.Addr().String())
	}

	srv, err := server.New(opts)
	if err != nil {
		return fmt.Errorf("server init: %w", err)
	}
	srv.Start()

	apiHandler := srv.Handler()
	var node *cluster.Node
	if peers != nil {
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
			grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
			defer cancel()
			_ = srv.Shutdown(grace) // nothing was served; only replayed jobs can be running
			return fmt.Errorf("cluster init: %w", err)
		}
		node.Start()
		apiHandler = node.Handler()
		logger.Info("cluster mode", "node", *nodeID, "peers", len(peers), "journal_dir", journalDir)
	}

	// ReadTimeout covers header + body: job submissions are small JSON
	// documents, so a client that cannot deliver one inside 30s is stalled or
	// hostile. No WriteTimeout — long-poll responses legitimately take up to
	// LongPollMax to produce.
	httpSrv := &http.Server{
		Handler:           apiHandler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String())

	var failed error
	select {
	case err := <-serveErr:
		failed = fmt.Errorf("http server: %w", err)
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
	return failed
}
