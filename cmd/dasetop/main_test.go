package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dasesim/internal/telemetry"
)

// serveStatic answers every request with status and body, recording the
// request URI it was asked for.
func serveStatic(t *testing.T, status int, body string, uri *string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		*uri = r.URL.RequestURI()
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestFetchFrame(t *testing.T) {
	want := testFrame()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var uri string
	ts := serveStatic(t, http.StatusOK, string(data), &uri)
	got, err := fetchFrame(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if uri != "/v1/cluster/metrics?by=node&format=json" {
		t.Errorf("requested %q, want the by-node JSON federation endpoint", uri)
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) || len(got.Families) != len(want.Families) {
		t.Fatalf("decoded frame = %+v, want %+v", got, want)
	}
	if got.Families[0].Name != "dased_queue_depth" {
		t.Errorf("first family %q", got.Families[0].Name)
	}
}

func TestFetchFrameErrors(t *testing.T) {
	var uri string
	down := serveStatic(t, http.StatusServiceUnavailable, "node draining", &uri)
	_, err := fetchFrame(down.URL)
	if err == nil || !strings.Contains(err.Error(), "status 503") || !strings.Contains(err.Error(), "node draining") {
		t.Errorf("non-200 answer: err = %v, want the status and the body", err)
	}

	garbled := serveStatic(t, http.StatusOK, "{not json", &uri)
	if _, err := fetchFrame(garbled.URL); err == nil || !strings.Contains(err.Error(), "decode cluster metrics") {
		t.Errorf("malformed body: err = %v, want a decode error", err)
	}

	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	if _, err := fetchFrame(gone.URL); err == nil {
		t.Error("unreachable member: want an error")
	}
}

func TestReadFleet(t *testing.T) {
	if evs, err := readFleet(""); evs != nil || err != nil {
		t.Errorf(`readFleet("") = %v, %v; want no panel and no error`, evs, err)
	}
	dir := t.TempDir()
	if _, err := readFleet(filepath.Join(dir, "missing.ndjson")); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}

	want := fleetEvents()[1:]
	path := filepath.Join(dir, "fleet.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteNDJSON(f, want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readFleet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d events, want 2", len(got))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Note != want[i].Note || got[i].SMs != want[i].SMs {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
