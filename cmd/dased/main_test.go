package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
	"dasesim/internal/server"
	"dasesim/internal/sim"
)

// TestMain runs the daemon itself when the test binary is re-executed with
// DASED_TEST_MAIN=1, so a test can kill a real dased process.
func TestMain(m *testing.M) {
	if os.Getenv("DASED_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// syncBuffer collects the daemon's logs while the test reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logAddr waits for the JSON log line with message msg and returns its
// addr field.
func logAddr(t *testing.T, logs *syncBuffer, msg string, done <-chan error) string {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		for _, line := range strings.Split(logs.String(), "\n") {
			var rec struct{ Msg, Addr string }
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == msg {
				return rec.Addr
			}
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before logging %q: %v\n%s", msg, err, logs)
		case <-deadline:
			t.Fatalf("no %q log line:\n%s", msg, logs)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// submitJob posts body to the daemon at base and long-polls the job until
// it is terminal.
func submitJob(t *testing.T, base, body string) server.JobView {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v server.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s, %v", resp.Status, err)
	}
	for v.Status == server.StatusQueued || v.Status == server.StatusRunning {
		resp, err := http.Get(base + "/v1/jobs/" + v.ID + "?wait_ms=30000")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if v.Status != server.StatusDone {
		t.Fatalf("job %s: %s (%s)", v.ID, v.Status, v.Error)
	}
	return v
}

// TestRunServesAndDrains is the kill, restart, resubmit test on real
// processes. A dased child process on a cache directory runs one small SB+SD
// job and is killed with SIGKILL. dased restarted in process on the same
// directory, with all 15 flags set, answers the resubmitted request as a
// disk hit whose result is byte-identical to the killed daemon's and to a
// direct simulation; then it is stopped by cancelling its context.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "gpu.json")
	kernelsPath := filepath.Join(dir, "kernels.json")
	if err := config.Default().SaveFile(cfgPath); err != nil {
		t.Fatal(err)
	}
	catalogue, err := kernels.ToJSON(kernels.All())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(kernelsPath, catalogue, 0o644); err != nil {
		t.Fatal(err)
	}
	traceDir := filepath.Join(dir, "traces")
	cacheDir := filepath.Join(dir, "cache")
	const body = `{"kernels":["SB","SD"],"cycles":20000,"seed":7}`

	// First life: a child process, killed without a drain.
	child := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-workers", "1", "-job-timeout", "1m",
		"-cache-dir", cacheDir, "-log-format", "json")
	child.Env = append(os.Environ(), "DASED_TEST_MAIN=1")
	childErr, err := child.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer child.Process.Kill()
	childLogs := &syncBuffer{}
	childDone := make(chan error, 1)
	go func() {
		_, _ = io.Copy(childLogs, childErr)
		childDone <- child.Wait()
	}()
	before := submitJob(t, "http://"+logAddr(t, childLogs, "listening", childDone), body)
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-childDone
	if strings.Contains(childLogs.String(), `"msg":"stopped"`) {
		t.Fatal("the killed daemon drained")
	}

	// Second life: in process, same cache directory, every flag set.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4",
			"-job-timeout", "1m", "-max-cycles", "1000000",
			"-cache-dir", cacheDir, "-shed-highwater", "-1",
			"-drain-grace", "30s", "-config", cfgPath, "-kernels", kernelsPath,
			"-check-invariants", "-debug-addr", "127.0.0.1:0", "-log-format", "json",
			"-trace-events", "256", "-trace-dir", traceDir,
		}, logs)
	}()
	base := "http://" + logAddr(t, logs, "listening", done)

	resp, err := http.Get("http://" + logAddr(t, logs, "pprof listening", done) + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: %s", resp.Status)
	}

	v := submitJob(t, base, body)
	if !v.CacheHit {
		t.Fatal("the resubmitted request was not a disk hit after the restart")
	}
	if v.ID != before.ID {
		t.Errorf("the same request got ID %s after the restart, %s before it", v.ID, before.ID)
	}
	got, _ := json.Marshal(v.Result)
	want, _ := json.Marshal(before.Result)
	if !bytes.Equal(got, want) {
		t.Fatalf("result after the restart differs from the killed daemon's:\n got %s\nwant %s", got, want)
	}

	cfg := config.Default()
	sb, _ := kernels.ByAbbr("SB")
	sd, _ := kernels.ByAbbr("SD")
	direct, err := sim.RunShared(cfg, []kernels.Profile{sb, sd}, sim.EvenAllocation(cfg.NumSMs, 2), 20_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, _ = json.Marshal(direct)
	got, _ = json.Marshal(v.Result.Sim)
	if !bytes.Equal(got, want) {
		t.Fatalf("dased result differs from sim.RunShared:\n got %s\nwant %s", got, want)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if !strings.Contains(logs.String(), `"msg":"stopped"`) {
		t.Errorf("no stopped line after the drain:\n%s", logs)
	}
	if _, err := os.Stat(filepath.Join(traceDir, v.ID+".trace.ndjson")); err != nil {
		t.Error(err)
	}
}

// TestMainDrainsOnSIGTERM runs main in process and sends the process
// SIGTERM once it listens: main must drain and return instead of dying.
func TestMainDrainsOnSIGTERM(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	args, stderr := os.Args, os.Stderr
	os.Args = []string{"dased", "-addr", "127.0.0.1:0", "-workers", "1", "-log-format", "json"}
	os.Stderr = w
	defer func() { os.Args, os.Stderr = args, stderr }()
	logs := &syncBuffer{}
	copied := make(chan struct{})
	go func() {
		_, _ = io.Copy(logs, r) // ends when w is closed below
		close(copied)
	}()
	done := make(chan error, 1)
	go func() {
		main()
		done <- nil
	}()
	logAddr(t, logs, "listening", done)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("main did not return after SIGTERM")
	}
	w.Close()
	<-copied
	if !strings.Contains(logs.String(), `"msg":"stopped"`) {
		t.Errorf("no stopped line after SIGTERM:\n%s", logs)
	}
}

func TestRunFlagErrors(t *testing.T) {
	// A case that wrongly starts serving sees a cancelled context, drains at
	// once and returns nil, which fails below instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	missing := filepath.Join(t.TempDir(), "missing")
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// At the default -max-cycles (20M), 1000-cycle intervals would let one
	// result hold 20000 snapshots.
	shortIntervals := filepath.Join(t.TempDir(), "gpu.json")
	cfg := config.Default()
	cfg.IntervalCycles = 1_000
	if err := cfg.SaveFile(shortIntervals); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"log-format", []string{"-log-format", "xml"}, `unknown -log-format "xml"`},
		{"deleted-flag", []string{"-cache", "16"}, "-cache"},
		// The cluster flags went with the cluster: dased is one process.
		{"deleted-peers", []string{"-peers", "x=y"}, "flag provided but not defined: -peers"},
		{"deleted-node-id", []string{"-node-id", "n1"}, "flag provided but not defined: -node-id"},
		{"deleted-heartbeat-interval", []string{"-heartbeat-interval", "1s"}, "flag provided but not defined: -heartbeat-interval"},
		// Results are durable by content address (-cache-dir) instead.
		{"deleted-journal", []string{"-journal", "dased.wal"}, "flag provided but not defined: -journal"},
		{"deleted-max-retries", []string{"-max-retries", "2"}, "flag provided but not defined: -max-retries"},
		{"missing-config", []string{"-config", filepath.Join(missing, "gpu.json")}, "load config"},
		{"missing-kernels", []string{"-kernels", filepath.Join(missing, "kernels.json")}, "load kernels"},
		{"bad-addr", []string{"-addr", "127.0.0.1:-1"}, "listen"},
		{"bad-debug-addr", []string{"-debug-addr", "127.0.0.1:-1"}, "listen"},
		{"cache-dir-under-file", []string{"-cache-dir", filepath.Join(file, "cache")}, "server init"},
		{"too-many-intervals", []string{"-config", shortIntervals}, "spans 20000 intervals of 1000 cycles, more than the 4096"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
