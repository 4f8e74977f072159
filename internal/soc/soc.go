// Package soc pins down the ULP430 system-on-chip memory map shared by
// the behavioral reference simulator (isim), the gate-level system
// (ulp430), and the benchmarks. The layout mirrors a small MSP430-class
// microcontroller: low peripheral space, 2 KiB of SRAM, 4 KiB of program
// ROM, and a reset vector at the top of the address space.
//
// The layout has one source of truth: the declarative Layout address map
// (built on internal/periph's area map). The region predicates below are
// lookups into it, so the predicates, the gate-level bus routing, and the
// behavioral simulator can never disagree about what lives where.
package soc

import "repro/internal/periph"

// Memory regions (byte addresses; all accesses are word-aligned).
const (
	// RAMStart is the first byte of SRAM.
	RAMStart = 0x0200
	// RAMEnd is one past the last byte of SRAM (2 KiB).
	RAMEnd = 0x0A00
	// ROMStart is the first byte of program ROM.
	ROMStart = 0xF000
	// ROMEnd is one past the last byte of ROM (the vector area is inside).
	ROMEnd = 0x10000
	// StackTop is the conventional initial stack pointer.
	StackTop = RAMEnd
)

// Peripheral registers.
const (
	// WDTCTL is the watchdog control register; bit 7 (WDTHOLD) stops the
	// free-running watchdog counter.
	WDTCTL = 0x0120
	// P1IN is the input port: reads return external input (X under
	// symbolic simulation — the paper's "set all peripheral port inputs
	// to Xs", Algorithm 1 line 11).
	P1IN = 0x0122
	// P1OUT is the output port register.
	P1OUT = 0x0124
	// HALTREG ends simulation when written with a non-zero value; it is
	// the SoC's "end of application" signal (Algorithm 1's END marker).
	HALTREG = 0x0126
	// MPY is the hardware multiplier's first operand (unsigned multiply).
	MPY = 0x0130
	// MPYS aliases MPY (the signed-multiply register of the MSP430
	// multiplier; this implementation treats it as unsigned — documented
	// simplification, the benchmarks use unsigned multiplies).
	MPYS = 0x0132
	// OP2 is the multiplier's second operand; writing it triggers the
	// multiplication.
	OP2 = 0x0138
	// RESLO holds the low 16 bits of the product.
	RESLO = 0x013A
	// RESHI holds the high 16 bits of the product.
	RESHI = 0x013C
)

// WDTHold is the WDTCTL bit that freezes the watchdog counter.
const WDTHold = 0x0080

// IRQVecFetch is the vector indirection port: during interrupt entry the
// CPU issues its vector read at this fixed address and the peripheral
// bus substitutes the pending device's vector-table entry (priority:
// timer above ADC). The address sits inside ROM but below the vector
// table, where no program places code.
const IRQVecFetch = 0xFFF0

// Area tags classifying the Layout map's regions.
const (
	// TagRAM marks SRAM.
	TagRAM = iota
	// TagROM marks program ROM.
	TagROM
	// TagCoreReg marks the core peripheral registers (watchdog, port,
	// halt, multiplier) implemented inside the CPU model itself.
	TagCoreReg
	// TagDevice marks the memory-mapped device space served by
	// internal/periph's bus (timer, ADC, radio). Without a bus attached
	// the space is unpopulated and accesses fault.
	TagDevice
)

// Layout is the SoC address map: every addressable region, its extent,
// and its classification tag. It is the single source of truth — the
// predicates below and the simulators' bus routing all consult it.
var Layout = periph.MustMap(
	periph.Area{Name: "sysregs", Start: WDTCTL, End: HALTREG + 2, Tag: TagCoreReg},
	periph.Area{Name: "mpy", Start: MPY, End: MPYS + 2, Tag: TagCoreReg},
	periph.Area{Name: "mpyres", Start: OP2, End: RESHI + 2, Tag: TagCoreReg},
	periph.Area{Name: "timer", Start: periph.TACTL, End: periph.TACCR + 2, Tag: TagDevice},
	periph.Area{Name: "adc", Start: periph.ADCTL, End: periph.ADDATA + 2, Tag: TagDevice},
	periph.Area{Name: "radio", Start: periph.RFCTL, End: periph.RFTX + 2, Tag: TagDevice},
	periph.Area{Name: "sram", Start: RAMStart, End: RAMEnd, Tag: TagRAM},
	periph.Area{Name: "rom", Start: ROMStart, End: ROMEnd, Tag: TagROM},
)

// tagOf classifies an address; areas are word-granular, so any byte of a
// mapped word classifies like the word.
func tagOf(a uint16) (int, bool) {
	area, ok := Layout.Lookup(a)
	if !ok {
		return 0, false
	}
	return area.Tag, true
}

// InRAM reports whether byte address a lies in SRAM.
func InRAM(a uint16) bool {
	t, ok := tagOf(a)
	return ok && t == TagRAM
}

// InROM reports whether byte address a lies in program ROM.
func InROM(a uint16) bool {
	t, ok := tagOf(a)
	return ok && t == TagROM
}

// IsPeripheral reports whether byte address a is a core peripheral
// register (implemented inside the CPU model, not on the device bus).
func IsPeripheral(a uint16) bool {
	t, ok := tagOf(a)
	return ok && t == TagCoreReg
}

// InDeviceSpace reports whether byte address a belongs to the
// memory-mapped device bus (timer/ADC/radio registers).
func InDeviceSpace(a uint16) bool {
	t, ok := tagOf(a)
	return ok && t == TagDevice
}

// Decoder classifies addresses like the predicates above, with one
// Layout lookup per access and none at all while accesses stay in the
// area last hit (the common case: fetches walk ROM, data and stack sit in
// SRAM). The zero Decoder is ready to use; it is not safe for concurrent
// use.
type Decoder struct {
	last periph.Area // the area last hit; empty (End 0) before the first
}

// TagUnmapped is Decoder.Tag's answer for an address in no area.
const TagUnmapped = -1

// Tag returns the tag of the Layout area holding byte address a, or
// TagUnmapped.
func (d *Decoder) Tag(a uint16) int {
	if d.last.Contains(a) {
		return d.last.Tag
	}
	area, ok := Layout.Lookup(a)
	if !ok {
		return TagUnmapped
	}
	d.last = area
	return area.Tag
}

// RegionName names the region containing a, or "unmapped".
func RegionName(a uint16) string {
	area, ok := Layout.Lookup(a)
	if !ok {
		return "unmapped"
	}
	return area.Name
}
