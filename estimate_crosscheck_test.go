package dasesim

// Cross-check of the online estimation service against the in-process model:
// for every interval snapshot recorded by the plain runs of the
// determinism-golden scenarios (shared with the determinism tests through
// scenarioPlain), the bytes served over HTTP by POST /v1/estimate must be
// byte-identical to what the in-process estimate.Service produces, and the
// slowdowns inside those bytes must equal core.EstimateDetailed's output
// bit-exactly. Together with the determinism goldens this pins the serving
// path end to end: HTTP transport, wire codec, pooling and scratch reuse may
// not perturb a single bit of the model's answer.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/estimate"
	"dasesim/internal/server"
)

func TestEstimateServiceCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped with -short")
	}
	srv, err := server.New(server.Options{
		Cfg:    config.Default(),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	svc := estimate.NewService(estimate.Options{Cfg: config.Default()})
	dase := core.New(core.Options{})
	sc := svc.Get()
	defer svc.Put(sc)

	for _, c := range detCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := scenarioPlain(t, c)
			if len(res.Snapshots) == 0 {
				t.Fatal("scenario recorded no snapshots")
			}
			for si := range res.Snapshots {
				snap := &res.Snapshots[si]
				if snap.IntervalCycles == 0 || len(snap.Apps) == 0 {
					continue
				}
				req := estimate.FromSnapshot(snap)
				body := estimate.AppendRequest(nil, &req)

				resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				servedBytes, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("snapshot %d rejected (%d): %s", si, resp.StatusCode, servedBytes)
				}

				// 1. HTTP bytes == in-process service bytes.
				sc.Body = append(sc.Body[:0], body...)
				if perr := svc.Process(sc); perr != nil {
					t.Fatalf("snapshot %d: in-process Process: %v", si, perr)
				}
				if !bytes.Equal(servedBytes, sc.Out) {
					t.Fatalf("snapshot %d: HTTP bytes diverge from in-process bytes:\n got %s\nwant %s",
						si, servedBytes, sc.Out)
				}

				// 2. The slowdowns inside those bytes == EstimateDetailed,
				// bit-exact (JSON float64 round-trips are exact in shortest
				// form).
				det := dase.EstimateDetailed(snap)
				var wire struct {
					Apps []struct {
						Slowdown         float64 `json:"slowdown"`
						SlowdownAssigned float64 `json:"slowdown_assigned"`
						MBB              bool    `json:"mbb"`
						TimeBank         float64 `json:"time_bank"`
						TimeRow          float64 `json:"time_row"`
						TimeLLC          float64 `json:"time_llc"`
					} `json:"apps"`
				}
				if err := json.Unmarshal(servedBytes, &wire); err != nil {
					t.Fatalf("snapshot %d: bad response JSON: %v", si, err)
				}
				if len(wire.Apps) != len(det) {
					t.Fatalf("snapshot %d: %d served apps, %d estimated", si, len(wire.Apps), len(det))
				}
				for ai := range det {
					w, d := wire.Apps[ai], det[ai]
					if w.Slowdown != d.Slowdown || w.SlowdownAssigned != d.SlowdownAssigned ||
						w.MBB != d.MBB || w.TimeBank != d.TimeBank ||
						w.TimeRow != d.TimeRow || w.TimeLLC != d.TimeLLC {
						t.Fatalf("snapshot %d app %d: served estimate diverges from EstimateDetailed:\n got %+v\nwant %+v",
							si, ai, w, d)
					}
				}
			}
		})
	}
}
