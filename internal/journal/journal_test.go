package journal

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dasesim/internal/faults"
)

func openT(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func appendT(t *testing.T, j *Journal, op, id string, data any) {
	t.Helper()
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			t.Fatal(err)
		}
		raw = b
	}
	if err := j.Append(context.Background(), Record{Op: op, JobID: id, Data: raw}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendReplayRoundTrip writes records, reopens, and checks everything
// comes back in order with sequence numbers and payloads intact.
func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	appendT(t, j, OpSubmitted, "job-1", map[string]int{"cycles": 100})
	appendT(t, j, OpStarted, "job-1", nil)
	appendT(t, j, OpFinished, "job-1", map[string]string{"status": "done"})
	if j.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs = openT(t, path)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	wantOps := []string{OpSubmitted, OpStarted, OpFinished}
	for i, rec := range recs {
		if rec.Op != wantOps[i] || rec.JobID != "job-1" {
			t.Fatalf("record %d: %+v", i, rec)
		}
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d", i, rec.Seq)
		}
		if rec.Time.IsZero() {
			t.Fatalf("record %d has no timestamp", i)
		}
	}
	var d map[string]int
	if err := json.Unmarshal(recs[0].Data, &d); err != nil || d["cycles"] != 100 {
		t.Fatalf("payload round-trip: %v %v", d, err)
	}
}

// TestTornTailTruncated simulates a crash mid-append: a partial frame at the
// tail is dropped on reopen and the file is truncated back to the last good
// record, after which appends continue cleanly.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path)
	appendT(t, j, OpSubmitted, "job-1", nil)
	appendT(t, j, OpSubmitted, "job-2", nil)
	j.Close()
	goodSize := fileSize(t, path)

	// A torn frame: a valid-looking header promising more bytes than exist.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], 500)
	binary.BigEndian.PutUint32(hdr[4:8], 0xdeadbeef)
	f.Write(hdr[:])
	f.Write([]byte("partial"))
	f.Close()

	j2, recs := openT(t, path)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if got := fileSize(t, path); got != goodSize {
		t.Fatalf("torn tail not truncated: size %d, want %d", got, goodSize)
	}
	// Appends after truncation land on a clean boundary.
	appendT(t, j2, OpSubmitted, "job-3", nil)
	j2.Close()
	_, recs = openT(t, path)
	if len(recs) != 3 || recs[2].JobID != "job-3" {
		t.Fatalf("post-truncation append lost: %+v", recs)
	}
}

// TestCorruptRecordStopsReplay flips a payload byte mid-file: replay keeps
// the prefix and drops the corrupt record and everything after it (the CRC
// guards against poisoned replay, not just torn tails).
func TestCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path)
	appendT(t, j, OpSubmitted, "job-1", nil)
	off := fileSize(t, path) // start of record 2
	appendT(t, j, OpSubmitted, "job-2", nil)
	appendT(t, j, OpSubmitted, "job-3", nil)
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off+8] ^= 0xff // corrupt record 2's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs := openT(t, path)
	if len(recs) != 1 || recs[0].JobID != "job-1" {
		t.Fatalf("replay after corruption: %+v", recs)
	}
	if got := fileSize(t, path); got != off {
		t.Fatalf("file not truncated at corruption: %d, want %d", got, off)
	}
}

// TestGarbageFileReplaysEmpty proves a journal full of noise replays as
// empty instead of failing Open.
func TestGarbageFileReplaysEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("garbage replayed %d records", len(recs))
	}
}

// TestRewriteCompacts checks Rewrite atomically replaces contents, reassigns
// sequence numbers, and that the compacted file replays alone.
func TestRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path)
	for i := 0; i < 20; i++ {
		appendT(t, j, OpSubmitted, "job-old", nil)
	}
	big := fileSize(t, path)
	keep := []Record{
		{Op: OpSubmitted, JobID: "job-9", Time: time.Unix(100, 0).UTC()},
		{Op: OpFinished, JobID: "job-9", Time: time.Unix(200, 0).UTC()},
	}
	if err := j.Rewrite(keep); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("Len after rewrite = %d", j.Len())
	}
	if got := fileSize(t, path); got >= big {
		t.Fatalf("rewrite did not shrink the file: %d >= %d", got, big)
	}
	// The journal stays appendable after the file swap.
	appendT(t, j, OpStarted, "job-10", nil)
	j.Close()
	_, recs := openT(t, path)
	if len(recs) != 3 {
		t.Fatalf("replay after rewrite: %d records, want 3", len(recs))
	}
	if recs[0].JobID != "job-9" || recs[1].Op != OpFinished || recs[2].JobID != "job-10" {
		t.Fatalf("unexpected records: %+v", recs)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d after rewrite", i, rec.Seq)
		}
	}
	if _, err := os.Stat(path + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary compact file left behind: %v", err)
	}
}

// TestAppendAfterCloseFails checks ErrClosed and Close idempotency.
func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	err := j.Append(context.Background(), Record{Op: OpSubmitted, JobID: "job-1"})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := j.Rewrite(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("rewrite after close: %v, want ErrClosed", err)
	}
}

// TestOpenAndRewriteReportFileErrors: a journal whose directory is missing
// fails to open, and a compaction whose directory vanished reports the
// failure and keeps the open file appendable.
func TestOpenAndRewriteReportFileErrors(t *testing.T) {
	if _, _, err := Open(filepath.Join(t.TempDir(), "missing", "j.wal")); err == nil {
		t.Fatal("Open in a missing directory succeeded")
	}
	dir := filepath.Join(t.TempDir(), "d")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, _ := openT(t, filepath.Join(dir, "j.wal"))
	defer j.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := j.Rewrite([]Record{{Op: OpSubmitted, JobID: "job-1"}}); err == nil {
		t.Fatal("Rewrite into a removed directory succeeded")
	}
	if err := j.Append(context.Background(), Record{Op: OpSubmitted, JobID: "job-2"}); err != nil {
		t.Fatalf("append after a failed rewrite: %v", err)
	}
}

// TestAppendFaultInjection proves the journal.append point can fail and
// deadline-bound appends.
func TestAppendFaultInjection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path)

	reg := faults.New(1)
	reg.Arm(faults.Spec{Point: "journal.append", Mode: faults.ModeError, Count: 1})
	faults.Activate(reg)
	defer faults.Deactivate()

	err := j.Append(context.Background(), Record{Op: OpSubmitted, JobID: "job-1"})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("append: %v, want injected", err)
	}
	// The failed append wrote nothing.
	if j.Len() != 0 {
		t.Fatalf("Len = %d after injected failure", j.Len())
	}
	// Exhausted: the next append succeeds.
	if err := j.Append(context.Background(), Record{Op: OpSubmitted, JobID: "job-1"}); err != nil {
		t.Fatal(err)
	}

	// Deadline overrun: an armed sleep ends at the context deadline.
	reg.Arm(faults.Spec{Point: "journal.append", Mode: faults.ModeSleep, Delay: time.Hour, Count: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = j.Append(ctx, Record{Op: OpStarted, JobID: "job-1"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline append: %v", err)
	}
}

// TestCRCMatchesStdlib pins the frame format: 4-byte big-endian length,
// 4-byte big-endian CRC-32 (IEEE) of the JSON payload.
func TestCRCMatchesStdlib(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path)
	appendT(t, j, OpSubmitted, "job-1", nil)
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 {
		t.Fatalf("file too short: %d", len(data))
	}
	length := binary.BigEndian.Uint32(data[0:4])
	sum := binary.BigEndian.Uint32(data[4:8])
	payload := data[8 : 8+length]
	if crc32.ChecksumIEEE(payload) != sum {
		t.Fatal("stored CRC does not match payload")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatalf("payload is not JSON: %v", err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestDirsyncFaultSurfaced exercises the journal.dirsync failure path: a
// compaction whose parent-directory fsync fails must report the error —
// the rename may roll back after power loss — while leaving the journal
// consistent and appendable (the data itself is durable in one of the two
// files).
func TestDirsyncFaultSurfaced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path)
	appendT(t, j, OpSubmitted, "job-1", nil)
	appendT(t, j, OpFinished, "job-1", nil)

	reg := faults.New(9)
	reg.Arm(faults.Spec{Point: "journal.dirsync", Mode: faults.ModeError, Count: 1})
	faults.Activate(reg)
	defer faults.Deactivate()

	err := j.Rewrite([]Record{{Op: OpSubmitted, JobID: "job-1", Time: time.Now()}})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Rewrite with failing dirsync: %v, want ErrInjected", err)
	}
	if reg.Fired("journal.dirsync") != 1 {
		t.Fatal("dirsync point never fired")
	}
	// The rename happened before the failed sync: the journal switched to
	// the compacted file and keeps working.
	if j.Len() != 1 {
		t.Fatalf("Len = %d after failed-dirsync compaction, want 1", j.Len())
	}
	appendT(t, j, OpStarted, "job-1", nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openT(t, path)
	if len(recs) != 2 || recs[0].Op != OpSubmitted || recs[1].Op != OpStarted {
		t.Fatalf("reopen after failed dirsync replayed %+v", recs)
	}
}

// TestRewriteDirsyncSucceeds pins the success path: an unarmed registry and a
// real directory fsync report no error.
func TestRewriteDirsyncSucceeds(t *testing.T) {
	faults.Deactivate()
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path)
	appendT(t, j, OpSubmitted, "job-1", nil)
	if err := j.Rewrite([]Record{{Op: OpFinished, JobID: "job-1", Time: time.Now()}}); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
}
