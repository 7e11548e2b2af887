// Package runcache is the content-addressed result cache of the serving
// path. The simulator is deterministic: the same (machine.Config, Program)
// pair always produces an identical sim.Result, regardless of scheduling,
// worker count, or GOMAXPROCS (the repo's race and property tests hold it to
// that). A run's identity is therefore *content*: a digest over the
// canonicalized machine configuration and the program's full region/stream
// structure. Two requests with the same digest may share one simulation —
// and a cached result may be served forever, because nothing but the inputs
// can change the output.
//
// The cache is an in-memory LRU with a byte budget, fronted by singleflight
// deduplication (concurrent identical requests share one simulation), with
// optional disk spill: evicted entries are written under a directory and
// reloaded on the next miss instead of re-simulating.
package runcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// Key is the content address of one (machine, program) pair: a SHA-256
// digest over the canonical encoding of both.
type Key [sha256.Size]byte

// String returns the hex form of the key (the spill file's base name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyVersion is bumped whenever the canonical encoding changes, so stale
// spill directories from an older encoding never alias a new key.
const keyVersion = 1

// KeyFor computes the content address of running prog on cfg.
//
// Canonicalization writes every semantic field of both inputs, each prefixed
// by its byte width, in a fixed order — no maps, no pointers, no layout
// dependence. Config names (cfg.Name, prog.Name) ARE part of the identity:
// they never change the simulation, but excluding them would let two
// differently-labeled runs alias, which is confusing for operators at zero
// savings. TestKeyCoversConfig pins the machine.Config field census so a new
// config field cannot be forgotten here silently.
func KeyFor(cfg machine.Config, prog *sim.Program) Key {
	w := keyWriter{h: sha256.New()}
	w.u64(keyVersion)

	// machine.Config, field by field.
	w.str(cfg.Name)
	w.u64(uint64(cfg.ClockMHz))
	w.u64(uint64(cfg.Protocol))
	w.cache(cfg.L1)
	w.cache(cfg.L2)
	w.u64(uint64(cfg.PageBytes))
	w.u64(uint64(cfg.ProcsPerRouter))
	w.u64(uint64(cfg.TLBEntries))
	w.i64(int64(cfg.Lat.L2Hit))
	w.i64(int64(cfg.Lat.MemLocal))
	w.i64(int64(cfg.Lat.Directory))
	w.i64(int64(cfg.Lat.RouterHop))
	w.i64(int64(cfg.Lat.DirtyFwd))
	w.i64(int64(cfg.Lat.SyncAcquire))
	w.i64(int64(cfg.Lat.SyncService))
	w.i64(int64(cfg.Lat.TLBMiss))
	w.f64(cfg.Cost.ComputeCPI)
	w.f64(cfg.Cost.L1HitCPI)
	w.i64(int64(cfg.Sync.BarrierInstr))
	w.i64(int64(cfg.Sync.SpinLoopInstr))
	w.f64(cfg.Sync.SpinLoopCPI)
	w.i64(int64(cfg.Sync.LockInstr))

	// Program identity and address-space anchors.
	w.str(prog.Name)
	w.u64(uint64(prog.Procs))
	w.u64(prog.DataBytes)
	w.u64(uint64(prog.Placement))
	w.u64(prog.SpaceBytes())
	w.u64(prog.BarrierAddr())
	w.u64(prog.LockAddr())

	// The full region/stream/op structure — the program's content.
	regions := prog.Regions()
	w.u64(uint64(len(regions)))
	for i := range regions {
		r := &regions[i]
		w.str(r.Name)
		w.u64(uint64(len(r.Streams)))
		for s := range r.Streams {
			ops := r.Streams[s].Ops
			w.u64(uint64(len(ops)))
			for _, op := range ops {
				w.u64(uint64(op.Kind))
				w.u64(op.Instr)
				w.u64(op.Base)
				w.u64(op.Count)
				w.i64(op.Stride)
				if op.Write {
					w.u64(1)
				} else {
					w.u64(0)
				}
				w.u64(op.InstrPer)
				w.u64(uint64(len(op.Addrs)))
				for _, a := range op.Addrs {
					w.u64(a)
				}
			}
		}
	}

	w.flush()
	var k Key
	w.h.Sum(k[:0])
	return k
}

// keyWriter streams canonical primitives into the digest through a 4 KiB
// buffer: one hash Write per buffer, not one per 8-byte field. The digest
// is that of the same byte stream (TestKeyPinned holds it to that).
type keyWriter struct {
	h   hash.Hash
	buf [4096]byte
	n   int
}

func (w *keyWriter) u64(v uint64) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

func (w *keyWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *keyWriter) i64(v int64) { w.u64(uint64(v)) }

func (w *keyWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *keyWriter) str(s string) {
	w.u64(uint64(len(s)))
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], s)
		w.n += c
		s = s[c:]
	}
}

func (w *keyWriter) cache(c machine.CacheConfig) {
	w.u64(uint64(c.SizeBytes))
	w.u64(uint64(c.LineBytes))
	w.u64(uint64(c.Assoc))
}
