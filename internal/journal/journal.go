// Package journal implements the dased daemon's durable job journal: an
// append-only write-ahead log of job lifecycle records. Every record is
// framed as an 8-byte header — big-endian uint32 payload length, then
// big-endian CRC-32 (IEEE) of the payload — followed by the record's JSON
// encoding. Appends fsync before returning ("fsync-on-commit"), so a record
// returned from Append survives a process kill.
//
// A crash mid-append leaves a torn tail: a short frame or one whose CRC or
// JSON does not check out. Open detects the first bad frame, truncates the
// file back to the last good record, and replays only the intact prefix —
// corruption never poisons recovery.
//
// Rewrite compacts the journal by atomically replacing the file (write to a
// temporary sibling, fsync, rename) with a snapshot of the records that
// still matter; the server calls it when terminal records dominate.
package journal

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dasesim/internal/faults"
)

// Lifecycle ops recorded by the server. Replay treats finished and canceled
// as terminal; everything else is re-enqueued.
const (
	OpSubmitted = "submitted"
	OpStarted   = "started"
	OpFinished  = "finished"
	OpCanceled  = "canceled"
)

// Record is one journal entry. Seq and Time are assigned by Append; Data is
// an op-specific payload owned by the caller (the server stores its request
// and result snapshots there, keeping this package schema-free).
type Record struct {
	Seq   uint64          `json:"seq"`
	Time  time.Time       `json:"time"`
	Op    string          `json:"op"`
	JobID string          `json:"job_id"`
	Data  json.RawMessage `json:"data,omitempty"`
}

const (
	headerSize = 8
	// maxRecordSize rejects absurd frame lengths during replay, which is how
	// a corrupt header manifests.
	maxRecordSize = 16 << 20
)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// Journal is an open journal file. All methods are safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	seq    uint64
	count  int // records currently in the file
	closed bool
}

// Open opens (creating if needed) the journal at path, replays its intact
// records, truncates any torn tail, and returns the journal positioned for
// appending.
func Open(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open: %w", err)
	}
	records, goodOff, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop the torn tail, if any, so the next append starts on a clean
	// frame boundary.
	if fi, err := f.Stat(); err == nil && fi.Size() > goodOff {
		if err := f.Truncate(goodOff); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(goodOff, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek: %w", err)
	}
	j := &Journal{path: path, f: f, count: len(records)}
	if n := len(records); n > 0 {
		j.seq = records[n-1].Seq
	}
	return j, records, nil
}

// replay reads intact records from the start of f and returns them with the
// offset just past the last good frame. Corruption is not an error — it
// marks the end of the intact prefix.
func replay(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("journal: seek: %w", err)
	}
	var (
		records []Record
		off     int64
		hdr     [headerSize]byte
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			// io.EOF is a clean end; ErrUnexpectedEOF is a torn header.
			return records, off, nil
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordSize {
			return records, off, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return records, off, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return records, off, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return records, off, nil
		}
		records = append(records, rec)
		off += headerSize + int64(length)
	}
}

// frame encodes rec as header + payload.
func frame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal: %w", err)
	}
	buf := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	return buf, nil
}

// Append assigns rec's sequence number and timestamp, writes it, and fsyncs
// before returning. ctx bounds the "journal.append" fault-injection point
// (armed sleeps end at the deadline); the write itself is not interruptible.
func (j *Journal) Append(ctx context.Context, rec Record) error {
	if err := faults.FireCtx(ctx, "journal.append"); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	rec.Seq = j.seq + 1
	rec.Time = time.Now().UTC()
	buf, err := frame(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.seq = rec.Seq
	j.count++
	return nil
}

// Len reports the number of records in the file (replayed plus appended, or
// the snapshot size after the latest Rewrite). The server compares it to its
// live-job count to decide when to compact.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// Rewrite atomically replaces the journal's contents with recs (sequence
// numbers are reassigned; timestamps are preserved). The replacement is
// crash-safe: the snapshot is written and fsynced to a temporary sibling,
// then renamed over the journal, so a kill at any point leaves either the
// old or the new file intact.
func (j *Journal) Rewrite(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	tmp := j.path + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	var seq uint64
	for _, rec := range recs {
		seq++
		rec.Seq = seq
		buf, err := frame(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("journal: rewrite: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: rewrite sync: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: rewrite rename: %w", err)
	}
	// f now refers to the renamed file and is positioned at its end. The
	// journal switches to it regardless of what the directory sync below
	// reports — the rename has happened.
	j.f.Close()
	j.f = f
	j.seq = seq
	j.count = len(recs)
	// fsync the parent directory so the rename itself survives power loss:
	// data blocks and the inode were made durable by f.Sync above, but the
	// directory entry pointing the journal's name at the new inode is its
	// own write. A failure is surfaced (the caller counts it) even though
	// both the old and the new file contents are individually durable — an
	// unsynced rename can roll back to the pre-compaction journal after a
	// power cut, silently resurrecting forgotten records.
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return fmt.Errorf("journal: rewrite dirsync: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making renames inside it durable. The
// "journal.dirsync" fault point injects the failure modes of the real call
// (filesystems that reject directory fsync, dying disks).
func syncDir(dir string) error {
	if err := faults.Fire("journal.dirsync"); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close syncs and closes the file. Further Appends return ErrClosed; Close
// is idempotent. Closing without a final sync is how tests simulate a crash
// (any buffered state is already on disk because Append syncs).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	if syncErr != nil {
		return fmt.Errorf("journal: close sync: %w", syncErr)
	}
	return closeErr
}
