package runcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"scaltool/internal/journal"
	"scaltool/internal/obs"
	"scaltool/internal/sim"
)

// Spill integrity. A spilled entry is written through a temp file + rename,
// which protects against a torn write of the *final* name — but says nothing
// about bit rot, a filesystem that lied about durability, or an operator
// truncating files. A corrupt spill entry must never be decoded into a
// half-real Result and served as if it were a simulation: the simulator is
// deterministic, so the safe conversion for any damage is a cache miss and a
// re-simulation.
//
// Every spill file, <key>.spill, is therefore framed, reusing the journal's
// CRC-32C (Castagnoli) machinery:
//
//	[8-byte magic "SCSPILL2"][8-byte LE payload length][4-byte LE CRC-32C][payload]
//
// The payload is the Result's fixed-layout binary form (sim.AppendBinary):
// reloading a megabyte-sized entry is a bounds-checked copy, not a JSON
// parse. On load the frame is verified before the payload is decoded, and
// the decoder checks the Result's per-processor shape. Damage is
// classified (header, torn, crc, decode), counted in
// scaltool_runcache_corrupt_total, and the file is moved into a quarantine
// subdirectory for forensics rather than silently deleted. Files of the
// older JSON format (SCSPILL1) were named <key>.json; this binary never
// opens them, so replicas of both versions can share a directory while a
// fleet upgrades, each missing on the other's files.
//
// Spill files are write-once. An entry that was loaded from the directory
// already has its file there, and evicting it writes nothing: results are
// deterministic and files content-addressed, so the file already holds the
// bytes a rewrite would produce. If the file has since been quarantined or
// deleted, the next lookup misses, re-simulates to the same answer, and
// that entry is written on its own eviction.
//
// Sharing one SpillDir across PROCESSES is supported — it is the fleet's
// shared cache tier: N scaltoold replicas point -cache-dir at one
// directory, so an entry spilled by any replica is a disk hit for all of
// them. The protocol needs no cross-process locks because every operation
// is already safe under concurrency from other processes:
//
//   - Temp names never collide: os.CreateTemp opens with O_CREATE|O_EXCL
//     and a random suffix, so two replicas spilling the same key write
//     disjoint temp files.
//   - Publication is a single atomic rename. Concurrent writers of one key
//     race benignly: the simulator is deterministic, so both temp files
//     hold byte-identical frames and either rename winning leaves the same
//     content. A reader racing the rename sees the complete old file or
//     the complete new one, never a splice.
//   - Quarantine races are benign the same way: the losing rename fails
//     (the source is gone) and falls back to a no-op remove.
//
// TestSpillTwoProcessContention drives two real OS processes at one
// directory to hold all of this; TestSpillSharedDirConcurrentCaches does
// the same for two Cache instances in one process under the race detector.

// spillMagic identifies (and versions) the spill frame format.
var spillMagic = [8]byte{'S', 'C', 'S', 'P', 'I', 'L', 'L', '2'}

const spillHeaderBytes = 8 + 8 + 4

// quarantineDirName is the subdirectory of SpillDir that holds entries that
// failed their integrity check.
const quarantineDirName = "quarantine"

// encodeSpillFrame frames the binary form of a Result for disk.
func encodeSpillFrame(res *sim.Result) []byte {
	out := sim.AppendBinary(make([]byte, spillHeaderBytes), res)
	body := out[spillHeaderBytes:]
	copy(out[:8], spillMagic[:])
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(body)))
	binary.LittleEndian.PutUint32(out[16:20], journal.Checksum(body))
	return out
}

// decodeSpillFrame verifies a frame and decodes its payload. On failure it
// reports the damage class ("header", "torn", "crc", "decode") alongside the
// error.
func decodeSpillFrame(data []byte) (*sim.Result, string, error) {
	if len(data) < spillHeaderBytes || !bytes.Equal(data[:8], spillMagic[:]) {
		return nil, "header", fmt.Errorf("runcache: spill frame header invalid (%d bytes)", len(data))
	}
	plen := binary.LittleEndian.Uint64(data[8:16])
	body := data[spillHeaderBytes:]
	if uint64(len(body)) != plen {
		return nil, "torn", fmt.Errorf("runcache: spill frame declares %d payload bytes, has %d", plen, len(body))
	}
	if got, want := journal.Checksum(body), binary.LittleEndian.Uint32(data[16:20]); got != want {
		return nil, "crc", fmt.Errorf("runcache: spill frame CRC %08x, want %08x", got, want)
	}
	res, err := sim.DecodeBinary(body)
	if err != nil {
		return nil, "decode", err
	}
	return res, "", nil
}

// quarantineSpill moves a damaged spill file aside (falling back to deletion
// if the move fails) so it is never re-read as a cache entry but remains
// available for forensics.
func (c *Cache) quarantineSpill(path string) {
	qdir := filepath.Join(c.spillDir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
			return
		}
	}
	_ = os.Remove(path)
}

// writeSpill persists an evicted entry that has no spill copy yet; failures
// only lose the spill copy.
// The write goes through a temp file + rename so a torn write never leaves a
// half-entry under the final name, and the frame's CRC catches everything
// rename cannot.
func (c *Cache) writeSpill(key Key, res *sim.Result) bool {
	path := c.spillPath(key)
	if path == "" {
		return false
	}
	framed := encodeSpillFrame(res)
	if err := os.MkdirAll(c.spillDir, 0o755); err != nil {
		return false
	}
	tmp, err := os.CreateTemp(c.spillDir, "spill-*.tmp")
	if err != nil {
		return false
	}
	if _, err := tmp.Write(framed); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return false
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return false
	}
	return true
}

// loadSpill reads a spilled entry back, or nil. An entry that fails its
// integrity check — torn frame, checksum mismatch, undecodable payload — is
// quarantined, counted, and treated as a miss: the run is deterministic, so
// it is simply regenerated.
func (c *Cache) loadSpill(key Key, mt *obs.Metrics) (*sim.Result, bool) {
	path := c.spillPath(key)
	if path == "" {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	res, damage, err := decodeSpillFrame(data)
	if err != nil {
		c.quarantineSpill(path)
		if mt != nil {
			mt.RuncacheCorrupt(damage).Inc()
		}
		return nil, false
	}
	return res, true
}
