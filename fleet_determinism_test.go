package dasesim

// The eighth determinism golden: a fixed-seed 3-tenant, 4-GPU fleet run over
// the real cycle engine must produce a byte-identical allocation-history
// CSV — across processes (the SHA-256 pin below) and across repeated
// in-process runs. The fleet layer sits on top of the whole stack —
// scheduler, DASE estimator, cycle engine — so this one hash transitively
// pins all of it.
//
// Regenerate (only when an *intentional* model change lands) with:
// go test -run TestFleetDeterminismGolden -update-golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"dasesim/internal/fleet"
)

const fleetGoldenKey = "fleet-3tenant-4gpu-csv"

// fleetGoldenCSV replays the golden scenario, checks every fairness invariant
// over the run, and returns the CSV bytes and their hex SHA-256.
func fleetGoldenCSV(t *testing.T) ([]byte, string) {
	t.Helper()
	sc := fleet.GoldenScenario()
	if _, ok := sc.Config.Engine.(*fleet.SimEngine); !ok {
		t.Fatalf("golden scenario engine is %T, want *fleet.SimEngine", sc.Config.Engine)
	}
	f, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.CheckAll(f.Records(), f.Capacity(), sc.Config.GPU.NumSMs); err != nil {
		t.Fatalf("golden run violates a fairness invariant: %v", err)
	}
	var buf bytes.Buffer
	if err := fleet.WriteCSV(&buf, f.Records()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:])
}

func TestFleetDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped with -short")
	}
	golden := map[string]string{}
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parse %s: %v", goldenPath, err)
		}
	} else if !*updateGolden {
		t.Fatalf("read %s: %v (regenerate with -update-golden)", goldenPath, err)
	}

	csv1, fp := fleetGoldenCSV(t)
	csv2, fp2 := fleetGoldenCSV(t)
	if !bytes.Equal(csv1, csv2) || fp != fp2 {
		t.Fatal("two identical golden runs produced different CSV bytes")
	}

	if *updateGolden {
		golden[fleetGoldenKey] = fp
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s", goldenPath, fp)
		return
	}
	want, ok := golden[fleetGoldenKey]
	if !ok {
		t.Fatalf("no golden hash for %q (regenerate with -update-golden)", fleetGoldenKey)
	}
	if fp != want {
		t.Errorf("fleet CSV hash mismatch: got %s want %s\nthe fleet layer no longer produces byte-identical allocation histories", fp, want)
	}
}
