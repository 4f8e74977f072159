package ulp430

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/gsim"
	"repro/internal/isa"
	"repro/internal/netlist"
	"repro/internal/periph"
)

// buildIRQSystem assembles the interrupt program on the given engine with
// the peripheral bus enabled, so a captured state exercises every codec
// section (planes, memory, staged inputs, bus state).
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
// original — same state key, and bit-identical execution from there on.
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
			if err := fresh.RestorePortable(dec); err != nil {
				t.Fatal(err)
			}
			if err := sys.RestorePortable(&st); err != nil {
				t.Fatal(err)
			}
			if stateKey(fresh) != stateKey(sys) {
				t.Fatal("state key differs after decoded restore")
			}
			for c := 0; c < 400; c++ {
				sys.Step()
				fresh.Step()
				if stateKey(fresh) != stateKey(sys) {
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

// TestPortableAcrossEngines sends a portable state through the codec
// into a system on the other gate engine: both engines keep net state in
// the same planes, so a state captured on the packed engine resumes on
// the scalar one, and the reverse. The receiver must then run in
// lockstep with the donor restored from the same state: equal value
// planes, active cells, energy bound and state key every cycle.
func TestPortableAcrossEngines(t *testing.T) {
	for _, engines := range [][2]gsim.Engine{
		{gsim.EnginePacked, gsim.EngineScalar},
		{gsim.EngineScalar, gsim.EnginePacked},
	} {
		t.Run(engines[0].String()+"-to-"+engines[1].String(), func(t *testing.T) {
			donor := buildIRQSystem(t, engines[0])
			for c := 0; c < 40; c++ {
				donor.Step()
			}
			sn := donor.Snapshot()
			for c := 0; c < 25; c++ {
				donor.Step()
			}
			var st PortableState
			donor.CapturePortableAt(sn, &st)
			dec, err := DecodePortable(EncodePortable(&st))
			if err != nil {
				t.Fatal(err)
			}
			recv := buildIRQSystem(t, engines[1])
			if err := recv.RestorePortable(dec); err != nil {
				t.Fatal(err)
			}
			if err := donor.RestorePortable(&st); err != nil {
				t.Fatal(err)
			}

			var snD, snR gsim.Snapshot
			var actD, actR []netlist.CellID
			for c := 0; c < 400; c++ {
				donor.Step()
				recv.Step()
				donor.Sim.SnapshotInto(&snD)
				recv.Sim.SnapshotInto(&snR)
				for _, pl := range [][2][]uint64{
					{snD.PlaneV, snR.PlaneV}, {snD.PlaneK, snR.PlaneK},
					{snD.PrevPlaneV, snR.PrevPlaneV}, {snD.PrevPlaneK, snR.PrevPlaneK},
				} {
					if !slices.Equal(pl[0], pl[1]) {
						t.Fatalf("cycle %d after restore: planes differ", c)
					}
				}
				actD, actR = donor.Sim.ActiveCells(actD[:0]), recv.Sim.ActiveCells(actR[:0])
				if !slices.Equal(actD, actR) {
					t.Fatalf("cycle %d after restore: %d vs %d active cells", c, len(actD), len(actR))
				}
				if bd, br := donor.Sim.BoundEnergyFJ(), recv.Sim.BoundEnergyFJ(); bd != br {
					t.Fatalf("cycle %d after restore: energy bound %v vs %v", c, bd, br)
				}
				if stateKey(donor) != stateKey(recv) {
					t.Fatalf("cycle %d after restore: state keys differ", c)
				}
				if donor.Halted() && recv.Halted() {
					return
				}
			}
			t.Fatal("restored runs never halted")
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
	// Past the interrupt entry, whose stack pushes are memory patches.
	for c := 0; c < 40; c++ {
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
	for _, magic := range []string{"ups1", "ups2", "ups3", "ups4"} {
		stale := append([]byte(nil), enc...)
		copy(stale, magic)
		if _, err := DecodePortable(stale); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("decoding an %s record: got %v, want a bad-magic error", magic, err)
		}
	}

	// The memory patch list must be strictly increasing word indices
	// inside the address space: anything else would leave words of the
	// previous task in memory or index past it.
	if len(st.patches) < 2 {
		t.Fatalf("captured state has %d memory patches; the cases below need two", len(st.patches))
	}
	for _, tc := range []struct {
		name string
		edit func(ps []memPatch)
		want string
	}{
		{"out-of-range index", func(ps []memPatch) { ps[len(ps)-1].idx = memWords }, "outside"},
		{"duplicate index", func(ps []memPatch) { ps[1].idx = ps[0].idx }, "does not follow"},
		{"descending index", func(ps []memPatch) { ps[0].idx, ps[1].idx = ps[1].idx, ps[0].idx }, "does not follow"},
	} {
		bad := st
		bad.patches = append([]memPatch(nil), st.patches...)
		tc.edit(bad.patches)
		if _, err := DecodePortable(EncodePortable(&bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// dirtyProg copies each input word to out (plus 3) and then overwrites
// the input word, so a run that gets past its loop leaves RAM and the
// input region different from memory as loaded. No branch depends on
// an input, so it runs to halt in either input mode.
const dirtyProg = `
.org 0x0200
in:  .input 4
out: .space 4
.org 0xf000
.entry main
main:
    mov #0x0080, &0x0120  ; hold the watchdog
    mov #in, r4
    mov #out, r5
    mov #4, r6
lp: mov @r4, r7
    add #3, r7
    mov r7, 0(r5)
    mov #0x5A5A, 0(r4)
    add #2, r4
    add #2, r5
    dec r6
    jnz lp
` + haltSeq

// TestRestorePortableOntoDirtySystem restores a state captured early on
// system A onto system B after B has run the program to halt, so B's RAM
// and input words no longer match memory as loaded. Restore must rebuild
// every word from the loaded image plus the state's patches: B must then
// hash like A and run like A. The concrete case uses non-zero inputs,
// so memory as loaded includes them, and rewrites the caller's input
// slice between A's capture and B's restore, which must not reach B.
func TestRestorePortableOntoDirtySystem(t *testing.T) {
	img, err := isa.Assemble("dirty", dirtyProg)
	if err != nil {
		t.Fatal(err)
	}
	inAddr := img.Inputs[0].Addr
	for _, tc := range []struct {
		name   string
		engine gsim.Engine
		mode   InputMode
		inputs []uint16
	}{
		{"packed", gsim.EnginePacked, SymbolicInputs, nil},
		{"scalar", gsim.EngineScalar, SymbolicInputs, nil},
		{"packed-concrete", gsim.EnginePacked, ConcreteInputs, []uint16{0x1111, 0x2222, 0x3333, 0x4444}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *System {
				sys, err := NewSystemEngine(tc.engine, sharedCPU(t), cell.ULP65(), img, tc.mode, tc.inputs)
				if err != nil {
					t.Fatal(err)
				}
				sys.Reset()
				return sys
			}
			a, b := build(), build()
			loaded := a.MemWord(inAddr).String()

			for c := 0; c < 12; c++ {
				a.Step()
			}
			sn := a.Snapshot()
			for c := 0; c < 60; c++ {
				a.Step()
			}
			var st PortableState
			a.CapturePortableAt(sn, &st)
			if err := a.RestorePortable(&st); err != nil {
				t.Fatal(err)
			}
			if got := a.MemWord(inAddr).String(); got != loaded {
				t.Fatalf("input word at the capture point is %s, want %s as loaded", got, loaded)
			}
			for i := range tc.inputs {
				tc.inputs[i] = 0xFFFF
			}

			if err := b.RunToHalt(2000); err != nil {
				t.Fatal(err)
			}
			if got := b.MemWord(inAddr).String(); got == loaded {
				t.Fatalf("B's input word is still %s after the run; the test needs it dirty", got)
			}
			if stateKey(b) == stateKey(a) {
				t.Fatal("B already hashes like the captured state before restore")
			}

			if err := b.RestorePortable(&st); err != nil {
				t.Fatal(err)
			}
			if got := b.MemWord(inAddr).String(); got != loaded {
				t.Fatalf("after restore B's input word is %s, want %s", got, loaded)
			}
			for c := 0; c < 400; c++ {
				if stateKey(b) != stateKey(a) {
					t.Fatalf("B differs from A %d cycles after restore", c)
				}
				a.Step()
				b.Step()
			}
		})
	}
}

// TestRestorePortableRejectsMisfit checks that a decoded state that
// does not fit the system (a plane cut short, a staged input on a
// driven net) fails RestorePortable and leaves the system's state as it
// was, instead of restoring part of it over the previous path.
func TestRestorePortableRejectsMisfit(t *testing.T) {
	sys := buildIRQSystem(t, gsim.EnginePacked)
	for c := 0; c < 40; c++ {
		sys.Step()
	}
	var st PortableState
	sys.CapturePortableAt(sys.Snapshot(), &st)
	enc := EncodePortable(&st)
	driven := sys.Sim.Netlist().Port("mab")[0]

	for _, tc := range []struct {
		name string
		cut  func(st *PortableState)
		want string
	}{
		{"short PlaneV", func(st *PortableState) { st.sim.PlaneV = st.sim.PlaneV[:1] }, "PlaneV has 1 words"},
		{"long PrevPlaneK", func(st *PortableState) { st.sim.PrevPlaneK = append(st.sim.PrevPlaneK, 0) }, "PrevPlaneK has"},
		{"staged driven net", func(st *PortableState) {
			st.sim.Staged = []gsim.StagedInput{{ID: driven}}
		}, "not a primary input"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec, err := DecodePortable(enc)
			if err != nil {
				t.Fatal(err)
			}
			tc.cut(dec)
			// Round-trip the cut state: the decoder accepts it, the
			// restore must not.
			if dec, err = DecodePortable(EncodePortable(dec)); err != nil {
				t.Fatal(err)
			}
			recv := buildIRQSystem(t, gsim.EnginePacked)
			for c := 0; c < 7; c++ {
				recv.Step()
			}
			before := stateKey(recv)
			err = recv.RestorePortable(dec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestorePortable = %v, want an error containing %q", err, tc.want)
			}
			if stateKey(recv) != before {
				t.Fatal("a rejected restore changed the system's state")
			}
		})
	}
}

// FuzzDecodePortable feeds arbitrary bytes to the checkpoint codec's
// decoder: it must return a state or an error, never panic or hang.
// A decoded state must re-encode to the canonical form, which decodes
// again and re-encodes byte-identically, and restoring it onto a real
// system must succeed or return an error, never panic.
func FuzzDecodePortable(f *testing.F) {
	sys := buildIRQSystem(f, gsim.EnginePacked)
	for c := 0; c < 40; c++ {
		sys.Step()
	}
	var st PortableState
	sys.CapturePortableAt(sys.Snapshot(), &st)
	f.Add(EncodePortable(&st))
	// The same state with a single memory patch: a well-formed input
	// small enough that mutation explores the layout, not the patches.
	st.patches = st.patches[:1]
	f.Add(EncodePortable(&st))
	// A plane cut to one word: decodes, but must not restore.
	st.sim.PlaneV = st.sim.PlaneV[:1]
	f.Add(EncodePortable(&st))
	f.Add(portableMagic[:])
	f.Add([]byte{})
	recv := buildIRQSystem(f, gsim.EnginePacked)

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
		_ = recv.RestorePortable(dec)
	})
}

// stateKey is System.StateKey as one comparable value.
func stateKey(s *System) [2]uint64 {
	lo, hi := s.StateKey()
	return [2]uint64{lo, hi}
}
