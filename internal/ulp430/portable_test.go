package ulp430

import (
	"bytes"
	"testing"

	"repro/internal/cell"
	"repro/internal/gsim"
	"repro/internal/isa"
	"repro/internal/periph"
)

// buildIRQSystem assembles the interrupt program on the given engine with
// the peripheral bus enabled, so a captured state exercises every codec
// section (planes or scalar vals, memory, staged inputs, bus state).
func buildIRQSystem(t testing.TB, engine gsim.Engine) *System {
	t.Helper()
	img, err := isa.Assemble("irq", irqProg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemEngine(engine, sharedCPU(t), cell.ULP65(), img, ConcreteInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableInterrupts(periph.Config{})
	sys.Reset()
	return sys
}

// TestPortableCodecRoundTrip pins the codec contract the checkpoint
// journal depends on: encode→decode→re-encode is byte-identical, and a
// decoded state restored on a fresh system is indistinguishable from the
// original — same state hash, and bit-identical execution from there on.
func TestPortableCodecRoundTrip(t *testing.T) {
	for _, engine := range []gsim.Engine{gsim.EnginePacked, gsim.EngineScalar} {
		t.Run(engine.String(), func(t *testing.T) {
			sys := buildIRQSystem(t, engine)
			// Step into the middle of the run so memory, the bus, and the
			// controller all hold non-reset state.
			for c := 0; c < 40; c++ {
				sys.Step()
			}
			sn := sys.Snapshot()
			// Keep mutating past the snapshot so CapturePortableAt has a
			// journal suffix to undo.
			for c := 0; c < 25; c++ {
				sys.Step()
			}
			var st PortableState
			sys.CapturePortableAt(sn, &st)

			enc := EncodePortable(&st)
			dec, err := DecodePortable(enc)
			if err != nil {
				t.Fatal(err)
			}
			if re := EncodePortable(dec); !bytes.Equal(enc, re) {
				t.Fatal("re-encoding a decoded state is not byte-identical")
			}

			// Restore the decoded state on a fresh system and the original
			// capture on the donor; they must be the same machine.
			fresh := buildIRQSystem(t, engine)
			fresh.RestorePortable(dec)
			sys.RestorePortable(&st)
			if fresh.StateHash() != sys.StateHash() {
				t.Fatal("state hash differs after decoded restore")
			}
			for c := 0; c < 400; c++ {
				sys.Step()
				fresh.Step()
				if fresh.StateHash() != sys.StateHash() {
					t.Fatalf("execution diverges %d cycles after restore", c)
				}
				if sys.Halted() && fresh.Halted() {
					return
				}
			}
			if !sys.Halted() || !fresh.Halted() {
				t.Fatal("restored runs never halted")
			}
		})
	}
}

// TestPortableCodecErrState checks the captured fault text survives the
// round trip (a resumed task that had already faulted must still fault).
func TestPortableCodecErrState(t *testing.T) {
	sys := buildIRQSystem(t, gsim.EnginePacked)
	sys.Step()
	sys.setErr("injected fault at %#04x", 0x1234)
	sn := sys.Snapshot()
	var st PortableState
	sys.CapturePortableAt(sn, &st)
	dec, err := DecodePortable(EncodePortable(&st))
	if err != nil {
		t.Fatal(err)
	}
	if dec.err == nil || dec.err.Error() != st.err.Error() {
		t.Fatalf("err round-trip: got %v, want %v", dec.err, st.err)
	}
}

// TestPortableCodecRejectsCorrupt ensures truncated or bit-flipped inputs
// fail decode instead of producing a plausible-looking wrong state.
func TestPortableCodecRejectsCorrupt(t *testing.T) {
	sys := buildIRQSystem(t, gsim.EnginePacked)
	for c := 0; c < 10; c++ {
		sys.Step()
	}
	sn := sys.Snapshot()
	var st PortableState
	sys.CapturePortableAt(sn, &st)
	enc := EncodePortable(&st)

	if _, err := DecodePortable(nil); err == nil {
		t.Fatal("decoding empty input succeeded")
	}
	if _, err := DecodePortable(enc[:len(enc)/3]); err == nil {
		t.Fatal("decoding truncated input succeeded")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF // magic
	if _, err := DecodePortable(bad); err == nil {
		t.Fatal("decoding with corrupt magic succeeded")
	}
	if _, err := DecodePortable(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("decoding with trailing garbage succeeded")
	}
}

// FuzzDecodePortable feeds arbitrary bytes to the checkpoint codec's
// decoder: it must return a state or an error, never panic or hang.
// A decoded state must re-encode to the canonical form, which decodes
// again and re-encodes byte-identically.
func FuzzDecodePortable(f *testing.F) {
	sys := buildIRQSystem(f, gsim.EnginePacked)
	for c := 0; c < 20; c++ {
		sys.Step()
	}
	var st PortableState
	sys.CapturePortableAt(sys.Snapshot(), &st)
	f.Add(EncodePortable(&st))
	// The same state with its memory image cut short: a well-formed
	// input small enough that mutation explores the layout, not the
	// memory words.
	st.mem = st.mem[:8]
	f.Add(EncodePortable(&st))
	f.Add(portableMagic[:])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodePortable(data)
		if err != nil {
			return
		}
		enc := EncodePortable(dec)
		again, err := DecodePortable(enc)
		if err != nil {
			t.Fatalf("re-encoded state fails decode: %v", err)
		}
		if re := EncodePortable(again); !bytes.Equal(enc, re) {
			t.Fatal("canonical re-encoding is not stable")
		}
	})
}
