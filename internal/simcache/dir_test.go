package simcache

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dasesim/internal/sim"
)

// dirResult is a small result with every slice populated, so a round trip
// through a directory entry exercises nested decoding.
func dirResult() *sim.Result {
	return &sim.Result{
		Cycles: 40_000,
		Apps:   []sim.AppResult{{Abbr: "SB", Instructions: 123_456, IPC: 3.0864, Alpha: 0.25}},
		Snapshots: []sim.IntervalSnapshot{
			{Cycle: 40_000, IntervalCycles: 40_000, NumSMs: 16, NumMCs: 6, Apps: []sim.AppInterval{{SMs: 16}}},
		},
		BusCycles: 9_000,
	}
}

func mustJSON(t testing.TB, r *sim.Result) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustNewDir(t testing.TB, dir string) *Memory {
	t.Helper()
	m, err := NewDir(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// noCompute fails the test if a lookup that should be served from the
// directory simulates.
func noCompute(t testing.TB) func() (*sim.Result, error) {
	return func() (*sim.Result, error) {
		t.Error("computed a key the directory holds")
		return nil, nil
	}
}

// TestDirPersistsAcrossInstances: a result computed through one Memory is a
// hit for a fresh Memory on the same directory, with the same bytes, and
// Peek sees the file before anything is loaded.
func TestDirPersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	want := dirResult()
	m1 := mustNewDir(t, dir)
	if _, err := m1.GetOrCompute(context.Background(), "k", func() (*sim.Result, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if st := m1.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("first instance stats = %+v, want one miss", st)
	}

	m2 := mustNewDir(t, dir)
	if !m2.Peek("k") || m2.Peek("absent") {
		t.Fatal("Peek does not reflect the directory")
	}
	got, err := m2.GetOrCompute(context.Background(), "k", noCompute(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Fatalf("reloaded result differs:\n got %s\nwant %s", mustJSON(t, got), mustJSON(t, want))
	}
	if st := m2.Stats(); st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("second instance stats = %+v, want one hit and the entry resident", st)
	}
	if _, ok := m2.Get("k"); !ok {
		t.Fatal("a directory hit was not kept in memory")
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) != 0 {
		t.Fatalf("temporary files left behind: %v", tmp)
	}
}

// TestDirDamagedEntryRecomputed: every way a file can fail its check is a
// miss that recomputes and overwrites it with a valid entry.
func TestDirDamagedEntryRecomputed(t *testing.T) {
	valid := func(key string) []byte {
		payload := mustJSON(t, dirResult())
		return append(append(entryHeader(key, payload), '\n'), payload...)
	}
	flipped := valid("k")
	flipped[len(flipped)-2] ^= 1
	notResult := []byte("[1]")
	for name, data := range map[string][]byte{
		"empty":       nil,
		"no-header":   []byte(`{"Cycles":1}`),
		"torn":        valid("k")[:60],
		"foreign-key": valid("other"),
		"bad-crc":     flipped,
		"not-result":  append(append(entryHeader("k", notResult), '\n'), notResult...),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "k"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			want := &sim.Result{Cycles: 5}
			got, err := mustNewDir(t, dir).GetOrCompute(context.Background(), "k", func() (*sim.Result, error) { return want, nil })
			if err != nil || got != want {
				t.Fatalf("got %+v, %v; want the recomputed result", got, err)
			}
			again, err := mustNewDir(t, dir).GetOrCompute(context.Background(), "k", noCompute(t))
			if err != nil || again.Cycles != 5 {
				t.Fatalf("overwritten entry read back as %+v, %v", again, err)
			}
		})
	}
}

// TestDirWriteErrors: a result that cannot be written is an error, and it
// is not cached, so the next lookup computes again.
func TestDirWriteErrors(t *testing.T) {
	ok := func() (*sim.Result, error) { return &sim.Result{Cycles: 1}, nil }
	t.Run("unencodable", func(t *testing.T) {
		m := mustNewDir(t, t.TempDir())
		_, err := m.GetOrCompute(context.Background(), "k", func() (*sim.Result, error) {
			return &sim.Result{Apps: []sim.AppResult{{IPC: math.NaN()}}}, nil
		})
		if err == nil || !strings.Contains(err.Error(), "simcache: encode k") {
			t.Fatalf("err = %v, want an encode error", err)
		}
		if st := m.Stats(); st.Entries != 0 {
			t.Fatalf("a result that failed to persist was cached: %+v", st)
		}
	})
	t.Run("directory-gone", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "cache")
		m := mustNewDir(t, dir)
		if err := os.Remove(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := m.GetOrCompute(context.Background(), "k", ok); err == nil {
			t.Fatal("write into a removed directory succeeded")
		}
	})
	t.Run("rename-onto-directory", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "k"), 0o755); err != nil {
			t.Fatal(err)
		}
		m := mustNewDir(t, dir)
		if _, err := m.GetOrCompute(context.Background(), "k", ok); err == nil || !strings.Contains(err.Error(), "simcache: write k") {
			t.Fatalf("err = %v, want a write error", err)
		}
		if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) != 0 {
			t.Fatalf("failed write left %v behind", tmp)
		}
	})
}

func TestNewDirRejectsFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDir(0, filepath.Join(file, "cache")); err == nil {
		t.Fatal("NewDir under a regular file succeeded")
	}
}

// passesCheck is the entry check written out independently of read: a
// header line of three space-separated fields (magic, key, CRC32 of the rest
// in hex), then a payload that decodes as a result.
func passesCheck(key string, data []byte) bool {
	line, payload, found := bytes.Cut(data, []byte("\n"))
	if !found {
		return false
	}
	fields := strings.Split(string(line), " ")
	if len(fields) != 3 || fields[0] != entryMagic || fields[1] != key || len(fields[2]) != 8 {
		return false
	}
	crc, err := strconv.ParseUint(fields[2], 16, 32)
	if err != nil || uint32(crc) != crc32.ChecksumIEEE(payload) {
		return false
	}
	var r sim.Result
	return json.Unmarshal(payload, &r) == nil
}

// FuzzDiskEntry plants arbitrary bytes as a key's file. A lookup never
// panics and never fails; it serves the file only when the file passes the
// check, and afterwards the key's file always holds a valid entry.
func FuzzDiskEntry(f *testing.F) {
	payload, err := json.Marshal(dirResult())
	if err != nil {
		f.Fatal(err)
	}
	valid := append(append(entryHeader("k", payload), '\n'), payload...)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append(entryHeader("j", payload), '\n'), payload...))
	f.Add([]byte{})
	f.Add([]byte("simcache/1 k 00000000\n"))
	f.Add([]byte("simcache/1 k 00000000\nnull"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "k")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := &sim.Result{Cycles: 77}
		computed := false
		got, err := mustNewDir(t, dir).GetOrCompute(context.Background(), "k", func() (*sim.Result, error) {
			computed = true
			return want, nil
		})
		if err != nil {
			t.Fatalf("lookup failed: %v", err)
		}
		if !computed && !passesCheck("k", data) {
			t.Fatalf("served a file that fails the check: %q", data)
		}
		if computed && got != want {
			t.Fatalf("computed lookup returned %+v", got)
		}
		after, err := os.ReadFile(path)
		if err != nil || !passesCheck("k", after) {
			t.Fatalf("file after the lookup fails the check: %q, %v", after, err)
		}
	})
}
