package runcache

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scaltool/internal/faultinject"
	"scaltool/internal/journal"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/sim"
)

// TestSpillFrameRoundTrip pins the frame layout: magic, little-endian payload
// length, CRC-32C, then the payload — and a decode that inverts it exactly.
func TestSpillFrameRoundTrip(t *testing.T) {
	cfg := machine.TinyTest()
	prog := testProg(t, cfg, "app", 2, 2)
	res, err := sim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	framed := encodeSpillFrame(res)
	if !bytes.Equal(framed[:8], spillMagic[:]) {
		t.Fatalf("frame magic = %q", framed[:8])
	}
	if plen := binary.LittleEndian.Uint64(framed[8:16]); plen != uint64(len(framed)-spillHeaderBytes) {
		t.Fatalf("declared payload %d bytes, frame carries %d", plen, len(framed)-spillHeaderBytes)
	}
	got, damage, err := decodeSpillFrame(framed)
	if err != nil {
		t.Fatalf("round-trip decode failed (%s): %v", damage, err)
	}
	if !bytes.Equal(encode(t, got), encode(t, res)) {
		t.Fatal("round-tripped result differs from the original")
	}
}

// TestSpillFrameDamageClasses mutates a valid frame one way per damage class
// and checks each is detected, classified, and never decoded into a Result.
func TestSpillFrameDamageClasses(t *testing.T) {
	cfg := machine.TinyTest()
	res, err := sim.Run(cfg, testProg(t, cfg, "app", 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	valid := encodeSpillFrame(res)
	// Frames whose CRC is honest about a payload the decoder rejects: the
	// integrity layer passes, the codec layer must still classify them.
	undecodable := reframe([]byte(`{"version":9999}`))
	payload := valid[spillHeaderBytes:]
	shortPayload := reframe(payload[:len(payload)-1])
	trailingPayload := reframe(append(append([]byte(nil), payload...), 0))
	// Procs is the u64 after the machine name: a frame claiming one more
	// processor than its per-processor slices hold fails the shape check.
	wrongProcs := append([]byte(nil), payload...)
	off := 8 + int(binary.LittleEndian.Uint64(wrongProcs))
	binary.LittleEndian.PutUint64(wrongProcs[off:], binary.LittleEndian.Uint64(wrongProcs[off:])+1)
	wrongShape := reframe(wrongProcs)

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		class  string
	}{
		{"empty file", func(b []byte) []byte { return nil }, "header"},
		{"short header", func(b []byte) []byte { return b[:spillHeaderBytes-1] }, "header"},
		{"wrong magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, "header"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-7] }, "torn"},
		{"appended garbage", func(b []byte) []byte { return append(b, 0xAA) }, "torn"},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-2] ^= 0x01; return b }, "crc"},
		{"flipped stored crc", func(b []byte) []byte { b[17] ^= 0x01; return b }, "crc"},
		{"undecodable payload", func(b []byte) []byte { return undecodable }, "decode"},
		{"payload one byte short", func(b []byte) []byte { return shortPayload }, "decode"},
		{"payload trailing byte", func(b []byte) []byte { return trailingPayload }, "decode"},
		{"processor count off by one", func(b []byte) []byte { return wrongShape }, "decode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			got, class, err := decodeSpillFrame(data)
			if err == nil || got != nil {
				t.Fatalf("damaged frame decoded: res=%v err=%v", got, err)
			}
			if class != tc.class {
				t.Fatalf("damage classified %q, want %q (%v)", class, tc.class, err)
			}
		})
	}
}

// reframe wraps payload in a spill frame with an honest length and CRC.
func reframe(payload []byte) []byte {
	out := make([]byte, spillHeaderBytes+len(payload))
	copy(out[:8], spillMagic[:])
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:20], journal.Checksum(payload))
	copy(out[spillHeaderBytes:], payload)
	return out
}

// TestSpillLoadQuarantines drives loadSpill over an on-disk entry damaged in
// place: the load must miss, count the damage class, and move the file into
// the quarantine directory so it is never re-read as a cache entry.
func TestSpillLoadQuarantines(t *testing.T) {
	cfg := machine.TinyTest()
	prog := testProg(t, cfg, "app", 2, 2)
	res, err := sim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c := New(Options{MaxBytes: 1 << 20, SpillDir: dir})
	key := KeyFor(cfg, prog)
	if !c.writeSpill(key, res) {
		t.Fatal("writeSpill failed")
	}
	mt := obs.NewMetrics()

	// Undamaged: loads cleanly, nothing counted, nothing quarantined.
	if got, ok := c.loadSpill(key, mt); !ok || got == nil {
		t.Fatal("clean spill entry did not load")
	}
	if n := mt.RuncacheCorrupt("crc").Value(); n != 0 {
		t.Fatalf("clean load counted %d corruptions", n)
	}

	// Flip one payload byte on disk.
	path := c.spillPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := c.loadSpill(key, mt); ok || got != nil {
		t.Fatal("corrupt spill entry loaded")
	}
	if n := mt.RuncacheCorrupt("crc").Value(); n != 1 {
		t.Fatalf("crc corruption count = %d, want 1", n)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("damaged file still at its spill path (err=%v)", err)
	}
	q := filepath.Join(dir, quarantineDirName, filepath.Base(path))
	if _, err := os.Stat(q); err != nil {
		t.Fatalf("damaged file not quarantined at %s: %v", q, err)
	}
	// The next load is a plain miss — quarantine is terminal, counted once.
	if _, ok := c.loadSpill(key, mt); ok {
		t.Fatal("quarantined entry loaded")
	}
	if n := mt.RuncacheCorrupt("crc").Value(); n != 1 {
		t.Fatalf("quarantined entry re-counted: %d", n)
	}
}

// TestSpillFaultInjection closes the loop with the chaos injector: a spill
// file damaged on disk (a torn or bit-rotted frame) must never produce a
// wrong answer — reloads detect the damage, quarantine the file, and
// re-simulate to a byte-identical result.
func TestSpillFaultInjection(t *testing.T) {
	cfg := machine.TinyTest()
	for _, tc := range []struct {
		name  string
		spec  faultinject.Spec
		class string
	}{
		{"torn write", faultinject.Spec{Seed: 7, Truncate: 1}, "torn"},
		{"bit rot", faultinject.Spec{Seed: 7, Corrupt: 1}, "crc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			prog := testProg(t, cfg, "app", 2, 2)
			res, err := sim.Run(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			want := encode(t, res)
			c := New(Options{MaxBytes: 1 << 20, SpillDir: dir})
			key := KeyFor(cfg, prog)
			if !c.writeSpill(key, res) {
				t.Fatal("writeSpill failed")
			}
			path := c.spillPath(key)
			clean, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damaged, _ := faultinject.New(tc.spec).MangleFile(filepath.Base(path), clean)
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}

			mt := obs.NewMetrics()
			if got, ok := c.loadSpill(key, mt); ok || got != nil {
				t.Fatal("mangled spill entry loaded as valid")
			}
			classes := []string{"header", "torn", "crc", "decode"}
			var total uint64
			for _, cl := range classes {
				total += mt.RuncacheCorrupt(cl).Value()
			}
			if total != 1 || mt.RuncacheCorrupt(tc.class).Value() != 1 {
				t.Fatalf("damage not classified %q exactly once (total %d)", tc.class, total)
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDirName, filepath.Base(path))); err != nil {
				t.Fatalf("damaged file not quarantined: %v", err)
			}

			// The full miss path re-simulates and the answer is unchanged.
			got, hit, err := c.GetOrRun(context.Background(), cfg, prog, func(ctx context.Context) (*sim.Result, error) {
				return sim.RunContext(ctx, cfg, prog)
			})
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Fatal("mangled entry reported as a cache hit")
			}
			if !bytes.Equal(encode(t, got), want) {
				t.Fatal("re-simulated result differs from the original")
			}
		})
	}
}

// spillWrites reads the count of spill files a cache actually wrote.
func spillWrites(mt *obs.Metrics) uint64 {
	return mt.Counter("scaltool_runcache_spill_writes_total", "").Value()
}

// oneEntryCache is a spilling cache whose budget holds one TinyTest result,
// with a getter that counts simulations.
func oneEntryCache(t *testing.T, dir string) (c *Cache, get func(i int) (*sim.Result, bool), runs *int, mt *obs.Metrics) {
	t.Helper()
	cfg := machine.TinyTest()
	mk := func(i int) *sim.Program { return testProg(t, cfg, fmt.Sprintf("app%d", i), 2, 2) }
	one, err := sim.Run(cfg, mk(0))
	if err != nil {
		t.Fatal(err)
	}
	c = New(Options{MaxBytes: one.SizeEstimate() + 16, SpillDir: dir})
	mt = obs.NewMetrics()
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
	runs = new(int)
	get = func(i int) (*sim.Result, bool) {
		prog := mk(i)
		res, hit, err := c.GetOrRun(ctx, cfg, prog, func(ctx context.Context) (*sim.Result, error) {
			*runs++
			return sim.RunContext(ctx, cfg, prog)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, hit
	}
	return c, get, runs, mt
}

// TestSpillWriteOnce: an entry reloaded from its spill file and evicted
// again leaves that file untouched — same inode, same mtime, no temp file —
// and writes nothing, yet still counts as a spilled eviction.
func TestSpillWriteOnce(t *testing.T) {
	dir := t.TempDir()
	c, get, runs, mt := oneEntryCache(t, dir)
	get(0)
	get(1) // evicts 0: written
	if n := spillWrites(mt); n != 1 {
		t.Fatalf("%d spill writes after the first eviction, want 1", n)
	}
	key0 := KeyFor(machine.TinyTest(), testProg(t, machine.TinyTest(), "app0", 2, 2))
	path := c.spillPath(key0)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	get(0) // disk hit; evicts 1, a fresh simulation: written
	// Disk hit; evicts 0, which came from disk: not written.
	if _, hit := get(1); !hit {
		t.Fatal("spilled entry 1 not reloaded")
	}
	if *runs != 2 {
		t.Fatalf("%d simulations, want 2 (both reloads from disk)", *runs)
	}
	if n := spillWrites(mt); n != 2 {
		t.Fatalf("%d spill writes, want 2: the reloaded entry was rewritten", n)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("evicting a reloaded entry replaced its spill file")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "spill-*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	spilled := mt.Counter("scaltool_runcache_evictions_total", "", "spilled", "true").Value()
	unspilled := mt.Counter("scaltool_runcache_evictions_total", "", "spilled", "false").Value()
	if spilled != 3 || unspilled != 0 {
		t.Fatalf("evictions spilled=%d unspilled=%d, want 3 and 0", spilled, unspilled)
	}
}

// TestSpillRewrittenAfterQuarantine: a reloaded entry whose file is then
// found damaged is quarantined and re-simulated, and that fresh result is
// written again on its next eviction.
func TestSpillRewrittenAfterQuarantine(t *testing.T) {
	dir := t.TempDir()
	c, get, runs, mt := oneEntryCache(t, dir)
	want, _ := get(0)
	get(1) // evicts 0: written
	key0 := KeyFor(machine.TinyTest(), testProg(t, machine.TinyTest(), "app0", 2, 2))
	path := c.spillPath(key0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Quarantined and re-simulated; evicts 1, a fresh simulation: written.
	if _, hit := get(0); hit {
		t.Fatal("damaged spill entry served as a hit")
	}
	if mt.RuncacheCorrupt("crc").Value() != 1 || *runs != 3 {
		t.Fatalf("crc detections %d, simulations %d; want 1 and 3", mt.RuncacheCorrupt("crc").Value(), *runs)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("damaged file still at its spill path (err=%v)", err)
	}
	writes := spillWrites(mt)
	get(1) // disk hit; evicts the re-simulated 0: written again
	if n := spillWrites(mt); n != writes+1 {
		t.Fatalf("re-simulated entry's eviction made %d spill writes, want 1", n-writes)
	}
	got, ok := c.loadSpill(key0, mt)
	if !ok || !bytes.Equal(encode(t, got), encode(t, want)) {
		t.Fatal("rewritten spill file does not reload to the original result")
	}
}

// TestLegacyJSONSpillIgnored: a <key>.json file in the older SCSPILL1
// format (JSON payload), as a replica of the previous version sharing the
// directory would write it, is never opened — the lookup misses without
// counting corruption, and the file is left as it was.
func TestLegacyJSONSpillIgnored(t *testing.T) {
	cfg := machine.TinyTest()
	prog := testProg(t, cfg, "app", 2, 2)
	res, err := sim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	payload := encode(t, res)
	legacy := reframe(payload)
	copy(legacy[:8], "SCSPILL1")
	dir := t.TempDir()
	key := KeyFor(cfg, prog)
	legacyPath := filepath.Join(dir, key.String()+".json")
	if err := os.WriteFile(legacyPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(Options{MaxBytes: 1 << 20, SpillDir: dir})
	mt := obs.NewMetrics()
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
	runs := 0
	got, hit, err := c.GetOrRun(ctx, cfg, prog, func(ctx context.Context) (*sim.Result, error) {
		runs++
		return sim.RunContext(ctx, cfg, prog)
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || runs != 1 {
		t.Fatalf("hit=%v after %d simulations; the legacy file must be a miss", hit, runs)
	}
	if !bytes.Equal(encode(t, got), payload) {
		t.Fatal("re-simulated result differs from the legacy file's")
	}
	if n := corruptionCount(mt); n != 0 {
		t.Fatalf("legacy file counted as %d corruptions", n)
	}
	if now, err := os.ReadFile(legacyPath); err != nil || !bytes.Equal(now, legacy) {
		t.Fatalf("legacy file changed or moved (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName)); !os.IsNotExist(err) {
		t.Fatalf("quarantine directory appeared (err=%v)", err)
	}
}
