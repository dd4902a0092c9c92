package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dasesim"
	"dasesim/internal/server"
)

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

// TestRunServesAndDrains boots dased with all 19 flags set (cluster mode on
// a one-node ring), runs one small SB+SD job, checks its result against a
// direct simulation, and stops the daemon by cancelling its context.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "gpu.json")
	kernelsPath := filepath.Join(dir, "kernels.json")
	if err := dasesim.SaveConfig(dasesim.DefaultConfig(), cfgPath); err != nil {
		t.Fatal(err)
	}
	if err := dasesim.SaveKernels(dasesim.Kernels(), kernelsPath); err != nil {
		t.Fatal(err)
	}
	traceDir := filepath.Join(dir, "traces")
	journalDir := filepath.Join(dir, "journal")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4",
			"-job-timeout", "1m", "-max-cycles", "1000000",
			"-journal", journalDir, "-max-retries", "0", "-shed-highwater", "-1",
			"-drain-grace", "30s", "-config", cfgPath, "-kernels", kernelsPath,
			"-check-invariants", "-debug-addr", "127.0.0.1:0", "-log-format", "json",
			"-trace-events", "256", "-trace-dir", traceDir,
			"-node-id", "n1", "-peers", "n1=http://127.0.0.1:1", "-heartbeat-interval", "50ms",
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

	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kernels":["SB","SD"],"cycles":20000,"seed":7}`))
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

	cfg := dasesim.DefaultConfig()
	sb, _ := dasesim.KernelByAbbr("SB")
	sd, _ := dasesim.KernelByAbbr("SD")
	direct, err := dasesim.RunShared(cfg, []dasesim.KernelProfile{sb, sd}, dasesim.EvenAllocation(cfg.NumSMs, 2), 20_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	got, _ := json.Marshal(v.Result.Sim)
	if !bytes.Equal(got, want) {
		t.Fatalf("dased result differs from dasesim.RunShared:\n got %s\nwant %s", got, want)
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
	for _, path := range []string{filepath.Join(traceDir, v.ID+".trace.json"), filepath.Join(journalDir, "n1.wal")} {
		if _, err := os.Stat(path); err != nil {
			t.Error(err)
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	// A case that wrongly starts serving sees a cancelled context, drains at
	// once and returns nil, which fails below instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"log-format", []string{"-log-format", "xml"}, `unknown -log-format "xml"`},
		{"peers-without-node-id", []string{"-peers", "n1=http://127.0.0.1:1"}, "-peers requires -node-id"},
		{"malformed-peer", []string{"-node-id", "n1", "-peers", "n1"}, `bad -peers entry "n1"`},
		{"duplicate-peer", []string{"-node-id", "n1", "-peers", "n1=http://a,n1=http://b"}, `duplicate node "n1"`},
		{"self-not-in-peers", []string{"-node-id", "n1", "-peers", "n2=http://127.0.0.1:1"}, "cluster init"},
		{"deleted-flag", []string{"-cache", "16"}, "-cache"},
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
