// Package journal is an append-only write-ahead log, built only on the
// standard library. A campaign's expensive state is the set of completed
// measurement runs; the journal makes that state survive process death
// (kill -9, OOM, power loss) so a resumed campaign replays what finished and
// re-executes only what did not.
//
// Layout: a journal is one file, journal.wal, in its own directory. The
// file is a sequence of framed records:
//
//	[4-byte LE payload length][4-byte LE CRC-32C][8-byte LE sequence][payload]
//
// The CRC (Castagnoli, the checksum NVMe and ext4 journaling use) covers
// the sequence number and the payload, so a torn or bit-flipped record
// never replays silently. Sequence numbers start at 1 and increase by one.
// A campaign journals a few dozen records, so the file is never rotated or
// compacted: Open replays all of it.
//
// Durability: every append is fsync'ed before it is acknowledged, and
// creating the file fsyncs the file and its directory, so an acknowledged
// record survives power loss.
//
// Crash anatomy on Open:
//
//   - a clean tail replays fully;
//   - a torn final record (partial header, short payload, CRC mismatch) is
//     truncated away, from the first bad frame on, and the truncation is
//     fsync'ed — the write never happened, which is exactly the contract the
//     campaign relies on;
//   - a well-framed record whose sequence number does not follow its
//     predecessor's is real corruption, and Open refuses with ErrCorrupt.
//
// The file name is the format marker. Every older journal format named its
// files snap-*.snap or wal-*.seg; Open refuses a directory holding any such
// file with ErrLegacyLayout, before it reads or truncates anything, and
// touches nothing in it.
//
// The Hook option is the crash laboratory: tests inject clean crashes,
// torn mid-record writes, and fsync failures at exact append counts
// (internal/faultinject translates its spec into a Hook).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Op names a journal operation a Hook can intercept.
type Op int

const (
	// OpAppend fires before a record is written; n counts appends from 1.
	OpAppend Op = iota
	// OpSync fires before a record fsync; n counts syncs from 1.
	OpSync
)

func (o Op) String() string {
	if o == OpSync {
		return "sync"
	}
	return "append"
}

// ErrTornWrite is the sentinel a Hook returns from OpAppend to make the
// journal write a deliberately truncated record — half the frame, no sync —
// before failing, simulating a process killed mid-write. Open truncates the
// torn tail away.
var ErrTornWrite = errors.New("journal: torn write injected")

// ErrCorrupt marks damage outside the replayable tail: a well-framed record
// out of sequence. Test with errors.Is.
var ErrCorrupt = errors.New("journal: corrupt record")

// ErrLegacyLayout marks a directory written in an older journal format.
// Test with errors.Is.
var ErrLegacyLayout = errors.New("journal: directory holds an older journal format")

// ErrClosed is returned by operations on a closed (or crash-failed)
// journal.
var ErrClosed = errors.New("journal: closed")

// Hook intercepts journal operations for deterministic fault injection.
// Returning a non-nil error from OpAppend aborts the append (wrapping
// ErrTornWrite leaves a torn frame behind first); from OpSync it skips the
// fsync and surfaces the error, simulating a storage stack that lost the
// write. After any hook failure the journal refuses further work.
type Hook func(op Op, n uint64) error

// Options configures Open.
type Options struct {
	// Hook, when non-nil, intercepts appends and syncs (fault injection).
	Hook Hook
}

const (
	// fileName is the journal file. No older format used this name, so
	// a journal under it was written in the format this package reads.
	fileName    = "journal.wal"
	headerBytes = 16
	// maxRecordBytes bounds a frame's declared payload so a corrupt length
	// field cannot drive a giant allocation.
	maxRecordBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C (Castagnoli) checksum the journal frames its
// records with, exported so the repo's other durability layers (the run
// cache's disk spill) share one integrity primitive instead of growing a
// second, subtly different one.
func Checksum(p []byte) uint32 { return crc32.Update(0, castagnoli, p) }

// Record is one replayed journal record.
type Record struct {
	Seq  uint64
	Data []byte
}

// OpenResult reports what Open recovered.
type OpenResult struct {
	// Tail holds every record in the journal, in sequence order.
	Tail []Record
	// TornBytes counts bytes truncated from the file's end (0 = clean).
	TornBytes int64
}

// Journal is an open write-ahead journal. All methods are safe for
// concurrent use.
type Journal struct {
	opts Options

	mu      sync.Mutex
	f       *os.File
	nextSeq uint64
	appendN uint64 // hook counters
	syncN   uint64
	broken  error // first fatal error; journal refuses further work
	closed  bool
}

// Open opens (creating if needed) the journal in dir, replays its records —
// truncating a torn final record — and leaves the journal positioned to
// append.
func Open(dir string, opts Options) (*Journal, *OpenResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := refuseLegacy(dir); err != nil {
		return nil, nil, err
	}
	j := &Journal{opts: opts, nextSeq: 1}
	res := &OpenResult{}
	path := filepath.Join(dir, fileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if j.f, err = create(dir, path); err != nil {
			return nil, nil, err
		}
		return j, res, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		closeQuiet(f)
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	off := 0
	for off < len(data) {
		rec, n, ok := parseRecord(data[off:])
		if !ok {
			break // torn tail: everything from here on is truncated
		}
		if rec.Seq != j.nextSeq {
			closeQuiet(f)
			return nil, nil, fmt.Errorf("journal: %s: sequence jumps %d → %d: %w",
				fileName, j.nextSeq-1, rec.Seq, ErrCorrupt)
		}
		res.Tail = append(res.Tail, rec)
		j.nextSeq++
		off += n
	}
	if off < len(data) {
		res.TornBytes = int64(len(data) - off)
		err := f.Truncate(int64(off))
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			closeQuiet(f)
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	j.f = f
	return j, res, nil
}

// refuseLegacy fails with ErrLegacyLayout if dir holds a snapshot or a
// segment: a journal in an older format, which this package does not read.
func refuseLegacy(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		snap := strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap")
		seg := strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg")
		if snap || seg {
			return fmt.Errorf("%w: found %s in %s; finish that campaign with the older binary, or start fresh in an empty directory",
				ErrLegacyLayout, name, dir)
		}
	}
	return nil
}

// create makes the empty journal file and fsyncs it and its directory, so
// the file itself survives power loss.
func create(dir, path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		closeQuiet(f)
		return nil, fmt.Errorf("journal: fsync: %w", err)
	}
	if err := syncDir(dir); err != nil {
		closeQuiet(f)
		return nil, err
	}
	return f, nil
}

// Append durably appends one record and returns its sequence number.
// After any error the journal is broken: the write may or may not be on
// disk (Open's torn-tail recovery decides), and further appends fail.
func (j *Journal) Append(data []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if j.broken != nil {
		return 0, j.broken
	}
	if len(data) == 0 || len(data) > maxRecordBytes {
		return 0, fmt.Errorf("journal: record of %d bytes (want 1..%d)", len(data), maxRecordBytes)
	}

	frame := frameRecord(j.nextSeq, data)
	j.appendN++
	if h := j.opts.Hook; h != nil {
		if err := h(OpAppend, j.appendN); err != nil {
			if errors.Is(err, ErrTornWrite) {
				// Simulate death mid-write: half the frame lands, no sync.
				if _, werr := j.f.Write(frame[:len(frame)/2]); werr != nil {
					err = errors.Join(err, werr)
				}
			}
			j.broken = fmt.Errorf("journal: append %d: %w", j.appendN, err)
			return 0, j.broken
		}
	}

	if _, err := j.f.Write(frame); err != nil {
		j.broken = fmt.Errorf("journal: %w", err)
		return 0, j.broken
	}
	j.syncN++
	if h := j.opts.Hook; h != nil {
		if err := h(OpSync, j.syncN); err != nil {
			// The fsync "failed": the record is in the page cache but has no
			// durability guarantee. Refuse further appends — a journal that
			// cannot promise durability must say so.
			j.broken = fmt.Errorf("journal: fsync of append %d: %w", j.appendN, err)
			return 0, j.broken
		}
	}
	if err := j.f.Sync(); err != nil {
		j.broken = fmt.Errorf("journal: fsync: %w", err)
		return 0, j.broken
	}
	seq := j.nextSeq
	j.nextSeq++
	return seq, nil
}

// AppendedBytes is the frame size Append will write for a payload — for
// callers that meter journal throughput.
func AppendedBytes(data []byte) int { return headerBytes + len(data) }

// Close flushes and closes the journal. Idempotent; safe after a fault.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var err error
	if j.broken == nil {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}

// frameRecord builds the on-disk frame for (seq, data).
func frameRecord(seq uint64, data []byte) []byte {
	buf := make([]byte, headerBytes+len(data))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	copy(buf[headerBytes:], data)
	crc := Checksum(buf[8:])
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	return buf
}

// parseRecord decodes one frame from buf. ok=false means buf holds no
// complete, checksummed record at its start (a torn tail).
func parseRecord(buf []byte) (rec Record, frameLen int, ok bool) {
	if len(buf) < headerBytes {
		return rec, 0, false
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n == 0 || n > maxRecordBytes || len(buf) < headerBytes+int(n) {
		return rec, 0, false
	}
	frameLen = headerBytes + int(n)
	crc := binary.LittleEndian.Uint32(buf[4:8])
	if Checksum(buf[8:frameLen]) != crc {
		return rec, 0, false
	}
	rec.Seq = binary.LittleEndian.Uint64(buf[8:16])
	rec.Data = append([]byte(nil), buf[headerBytes:frameLen:frameLen]...)
	return rec, frameLen, true
}

// syncDir fsyncs a directory so a file creation in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: dir sync: %w", err)
	}
	return nil
}

// closeQuiet closes a file whose contents no longer matter (error paths
// only); the close error is deliberately dropped.
func closeQuiet(f *os.File) { _ = f.Close() }
