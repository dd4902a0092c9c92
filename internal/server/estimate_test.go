package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dasesim/internal/estimate"
)

// estBody returns a plausible two-app snapshot body.
func estBody(id uint64) []byte {
	req := estimate.Request{
		ID: id,
		Apps: []estimate.AppCounters{
			{SMs: 8, Alpha: 0.4, Served: 9000, TimeInBanks: 180_000, ERBMiss: 300,
				ELLCMiss: 120, RowHits: 7000, RowMisses: 2000, BLP: 9, BLPAccess: 6,
				BLPBlocked: 2.5, TBSum: 96, TBShared: 48},
			{SMs: 8, Alpha: 0.9, Served: 21_000, TimeInBanks: 400_000, ERBMiss: 800,
				ELLCMiss: 300, RowHits: 4000, RowMisses: 16_000, BLP: 17, BLPAccess: 13,
				BLPBlocked: 3, TBSum: 120, TBShared: 60},
		},
	}
	return estimate.AppendRequest(nil, &req)
}

type estResp struct {
	ID   uint64 `json:"id"`
	Apps []struct {
		Slowdown float64 `json:"slowdown"`
		MBB      bool    `json:"mbb"`
	} `json:"apps"`
	Partition []int   `json:"partition"`
	Error     string  `json:"error"`
	Unfair    float64 `json:"unfairness"`
}

func postEstimate(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestEstimateSingleShot(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := postEstimate(t, ts, estBody(42))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var er estResp
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if er.ID != 42 || len(er.Apps) != 2 || len(er.Partition) != 2 {
		t.Fatalf("unexpected response: %s", data)
	}
	if er.Apps[0].Slowdown < 1 {
		t.Fatalf("slowdown < 1: %s", data)
	}

	metrics := fetchMetrics(t, ts)
	for _, want := range []string{
		"dased_estimate_requests_total 1",
		"dased_estimate_rejected_total 0",
		`dased_estimate_latency_seconds_bucket{le="+Inf"} 1`,
		`dased_estimate_batch_size_bucket{le="1"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestEstimateBatch(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := append([]byte{'['}, estBody(1)...)
	body = append(body, ',')
	body = append(body, estBody(2)...)
	body = append(body, ']')
	resp, data := postEstimate(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var ers []estResp
	if err := json.Unmarshal(data, &ers); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if len(ers) != 2 || ers[0].ID != 1 || ers[1].ID != 2 {
		t.Fatalf("unexpected batch: %s", data)
	}
	if m := fetchMetrics(t, ts); !strings.Contains(m, "dased_estimate_requests_total 2") {
		t.Errorf("batch must count both snapshots")
	}
}

func TestEstimateRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed", `{"apps":[`, http.StatusBadRequest},
		{"invalid-alpha", `{"apps":[{"sms":8,"alpha":-3}]}`, http.StatusBadRequest},
		{"no-apps", `{"apps":[]}`, http.StatusBadRequest},
		{"oversized", string(make([]byte, 2<<20)), http.StatusRequestEntityTooLarge},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postEstimate(t, ts, []byte(tc.body))
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d want %d: %s", resp.StatusCode, tc.status, data)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Fatalf("error body must carry an error message: %s", data)
			}
			want := fmt.Sprintf("dased_estimate_rejected_total %d", i+1)
			if m := fetchMetrics(t, ts); !strings.Contains(m, want) {
				t.Errorf("metrics missing %q", want)
			}
		})
	}
}

// TestEstimateDraining: once shutdown has begun, POST /v1/estimate is
// refused with 503 and the service's error body, so the listener can close
// promptly.
func TestEstimateDraining(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if resp, data := postEstimate(t, ts, estBody(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("before drain: status %d: %s", resp.StatusCode, data)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, data := postEstimate(t, ts, estBody(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining estimate status %d, want 503: %s", resp.StatusCode, data)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error != ErrDraining.Error() {
		t.Fatalf("draining error body = %s, want %q", data, ErrDraining.Error())
	}
}

// TestEstimateMatchesInProcess: the served bytes must equal what the
// in-process service produces for the same body — the transport must not
// touch the payload.
func TestEstimateMatchesInProcess(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := estBody(5)
	_, served := postEstimate(t, ts, body)

	sc := s.est.Get()
	defer s.est.Put(sc)
	sc.Body = append(sc.Body[:0], body...)
	if err := s.est.Process(sc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, sc.Out) {
		t.Fatalf("served bytes diverge from in-process bytes:\n got %s\nwant %s", served, sc.Out)
	}
}
