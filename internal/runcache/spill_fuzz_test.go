package runcache

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// FuzzDecodeSpillFrame feeds arbitrary bytes to the spill-frame decoder,
// both as a whole file and as a payload rewrapped with an honest length and
// CRC, so mutations reach the binary Result decoder past the integrity
// check. The properties:
//
//   - it never panics;
//   - it allocates at most a small multiple of the input's length, however
//     large the counts the input claims;
//   - an error carries exactly one damage class, and a rewrapped payload can
//     only fail as "decode";
//   - a frame that decodes is canonical: re-encoding its Result reproduces
//     the input byte for byte.
//
// Seeds are real swim, hydro2d and t3dheat frames plus bit-flipped and
// truncated variants of each, and two frames claiming huge counts.
func FuzzDecodeSpillFrame(f *testing.F) {
	// t3dheat runs one iteration with few barriers: its default frame is
	// 125 KB at two processors, and the fuzzer's throughput falls with
	// input size.
	t3dheat := apps.NewT3dheat()
	t3dheat.Params.Iters, t3dheat.Params.ExtraBarriers = 1, 2
	cfg := machine.ScaledOrigin()
	for _, app := range []apps.App{apps.NewSwim(), apps.NewHydro2d(), t3dheat} {
		prog, err := app.Build(cfg, 2, app.DefaultBytes(cfg))
		if err != nil {
			f.Fatal(err)
		}
		res, err := sim.Run(cfg, prog)
		if err != nil {
			f.Fatal(err)
		}
		frame := encodeSpillFrame(res)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:spillHeaderBytes+8])
		for _, at := range []int{3, 12, 18, spillHeaderBytes + 9, len(frame) / 2, len(frame) - 1} {
			flipped := append([]byte(nil), frame...)
			flipped[at] ^= 0x20
			f.Add(flipped)
		}
	}
	// Payloads whose first per-processor slice claims 2^20 and 2^62 counter
	// sets after eight scalar fields (names empty, one processor): a decoder
	// that allocated before checking the count would blow the allocation
	// bound or panic in make.
	for _, claim := range []uint64{1 << 20, 1 << 62} {
		hostile := make([]byte, 0, 80)
		for _, v := range []uint64{0, 1, 0, 0, 0, 0, 1, 0, claim + 1, 7} {
			hostile = binary.LittleEndian.AppendUint64(hostile, v)
		}
		f.Add(reframe(hostile))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSpillFrame(t, data, false)
		if len(data) >= spillHeaderBytes {
			checkSpillFrame(t, reframe(data[spillHeaderBytes:]), true)
		}
	})
}

// checkSpillFrame decodes one frame and holds it to FuzzDecodeSpillFrame's
// properties. honest says the frame's length and CRC are known good.
func checkSpillFrame(t *testing.T, data []byte, honest bool) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	res, class, err := decodeSpillFrame(data)
	runtime.ReadMemStats(&ms)
	// The decoder's densest case is a segment: 16 encoded bytes become a
	// 40-byte slice element; the constant covers the Result and the error.
	if alloc, limit := ms.TotalAlloc-before, 3*uint64(len(data))+64<<10; alloc > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), alloc, limit)
	}
	if err == nil {
		if res == nil || class != "" {
			t.Fatalf("success with res=%v class=%q", res != nil, class)
		}
		if !bytes.Equal(encodeSpillFrame(res), data) {
			t.Fatal("decoded frame does not re-encode to its input")
		}
		return
	}
	if res != nil {
		t.Fatalf("error %v returned a Result", err)
	}
	switch class {
	case "header", "torn", "crc":
		if honest {
			t.Fatalf("honest frame failed as %q: %v", class, err)
		}
	case "decode":
	default:
		t.Fatalf("error %v has damage class %q", err, class)
	}
}
