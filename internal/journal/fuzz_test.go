package journal

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Damage modes of FuzzJournalReplay.
const (
	damageTail     = iota // append arbitrary bytes after the last frame
	damageFlip            // flip one bit inside a frame
	damageTruncate        // cut the file inside a frame
	damageModes
)

// FuzzJournalReplay writes n valid frames, damages the file, and checks
// recovery: Open never fails on file content; it returns exactly the
// records before the first damaged frame and truncates the file to them;
// and an Append then a reopen yields that prefix plus the new record.
// Bytes appended after intact frames are a journal of their own, so there
// the expected records are the written ones followed by what Open reads
// from the tail alone.
func FuzzJournalReplay(f *testing.F) {
	f.Add(uint8(3), uint8(damageTruncate), uint8(1), uint16(3), uint8(0), []byte(nil))            // torn header
	f.Add(uint8(3), uint8(damageTruncate), uint8(2), uint16(headerSize+5), uint8(0), []byte(nil)) // torn payload
	f.Add(uint8(3), uint8(damageFlip), uint8(1), uint16(5), uint8(3), []byte(nil))                // CRC flip
	f.Add(uint8(2), uint8(damageFlip), uint8(0), uint16(0), uint8(7), []byte(nil))                // length > maxRecordSize
	f.Add(uint8(2), uint8(damageTail), uint8(0), uint16(0), uint8(0), make([]byte, headerSize+4)) // length 0
	f.Add(uint8(1), uint8(damageTail), uint8(0), uint16(0), uint8(0), validFrame(f, `{"seq":9,"op":"x"}`))
	f.Add(uint8(0), uint8(damageTail), uint8(0), uint16(0), uint8(0), []byte("garbage"))
	f.Fuzz(func(t *testing.T, n, mode, frameIdx uint8, off uint16, bit uint8, tail []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "j.wal")
		written := writeRecords(t, path, int(n%6))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		starts := frameStarts(data)
		want, keep := written, int64(len(data))
		if mode%damageModes == damageTail || len(written) == 0 {
			data = append(data, tail...)
			tailRecs, tailKeep := openFile(t, filepath.Join(dir, "tail.wal"), tail)
			want, keep = append(want, tailRecs...), keep+tailKeep
		} else {
			k := int(frameIdx) % len(written)
			at := starts[k] + int(off)%(starts[k+1]-starts[k])
			if mode%damageModes == damageFlip {
				data[at] ^= 1 << (bit % 8)
			} else {
				data = data[:at]
			}
			want, keep = written[:k], int64(starts[k])
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		j, got, err := Open(path)
		if err != nil {
			t.Fatalf("Open on damaged content: %v", err)
		}
		sameRecords(t, "replay", got, want)
		if fi, err := os.Stat(path); err != nil || fi.Size() != keep {
			t.Fatalf("file holds %v bytes after Open (%v), want the %d-byte intact prefix", fi.Size(), err, keep)
		}
		if err := j.Append(context.Background(), Record{Op: OpSubmitted, JobID: "after"}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, got, err = Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j.Close()
		seq := uint64(1)
		if len(want) > 0 {
			seq = want[len(want)-1].Seq + 1
		}
		sameRecords(t, "reopen", got, append(want, Record{Seq: seq, Op: OpSubmitted, JobID: "after"}))
	})
}

// writeRecords appends n records to a fresh journal at path and returns
// them as replay reads them back.
func writeRecords(t *testing.T, path string, n int) []Record {
	t.Helper()
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		data := json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))
		if err := j.Append(context.Background(), Record{Op: OpStarted, JobID: fmt.Sprint("job-", i), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("wrote %d records, replay read %d", n, len(recs))
	}
	return recs
}

// frameStarts returns each intact frame's offset in data, then len(data).
func frameStarts(data []byte) []int {
	starts := []int{0}
	for at := 0; at < len(data); {
		at += headerSize + int(binary.BigEndian.Uint32(data[at:]))
		starts = append(starts, at)
	}
	return starts
}

// openFile writes content to path, opens it as a journal, and returns the
// records Open read and the file's size afterwards.
func openFile(t *testing.T, path string, content []byte) ([]Record, int64) {
	t.Helper()
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := Open(path)
	if err != nil {
		t.Fatalf("Open on arbitrary content: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs, fi.Size()
}

// validFrame frames payload as Append would.
func validFrame(f *testing.F, payload string) []byte {
	var rec Record
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		f.Fatal(err)
	}
	buf, err := frame(rec)
	if err != nil {
		f.Fatal(err)
	}
	return buf
}

// sameRecords compares records field by field; a zero Time in want (a
// record Append stamps) is not compared.
func sameRecords(t *testing.T, stage string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", stage, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Op != w.Op || g.JobID != w.JobID || !bytes.Equal(g.Data, w.Data) ||
			(!w.Time.IsZero() && !g.Time.Equal(w.Time)) {
			t.Fatalf("%s: record %d = %+v, want %+v", stage, i, g, w)
		}
	}
}
