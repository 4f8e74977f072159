package soc

import (
	"math/rand"
	"testing"

	"repro/internal/periph"
)

// TestRegionBoundaries walks every region edge of the declarative
// Layout: the byte just below, the first byte, the last byte, and the
// byte just past each mapped area must classify exactly.
func TestRegionBoundaries(t *testing.T) {
	type class struct {
		ram, rom, core, dev bool
		name                string
	}
	classify := func(a uint16) class {
		return class{InRAM(a), InROM(a), IsPeripheral(a), InDeviceSpace(a), RegionName(a)}
	}
	for _, tc := range []struct {
		addr uint16
		want class
	}{
		{0x0000, class{name: "unmapped"}},
		{WDTCTL - 2, class{name: "unmapped"}},
		{WDTCTL, class{core: true, name: "sysregs"}},
		{P1IN, class{core: true, name: "sysregs"}},
		{HALTREG, class{core: true, name: "sysregs"}},
		{HALTREG + 2, class{name: "unmapped"}},
		{MPY, class{core: true, name: "mpy"}},
		{MPYS, class{core: true, name: "mpy"}},
		{OP2, class{core: true, name: "mpyres"}},
		{RESLO, class{core: true, name: "mpyres"}},
		{RESHI, class{core: true, name: "mpyres"}},
		{RESHI + 2, class{name: "unmapped"}},
		{periph.TACTL, class{dev: true, name: "timer"}},
		{periph.TACCR, class{dev: true, name: "timer"}},
		{periph.TACCR + 2, class{name: "unmapped"}},
		{periph.ADCTL, class{dev: true, name: "adc"}},
		{periph.ADDATA, class{dev: true, name: "adc"}},
		{periph.RFCTL, class{dev: true, name: "radio"}},
		{periph.RFTX, class{dev: true, name: "radio"}},
		{periph.RFTX + 2, class{name: "unmapped"}},
		{RAMStart - 1, class{name: "unmapped"}},
		{RAMStart, class{ram: true, name: "sram"}},
		{RAMEnd - 1, class{ram: true, name: "sram"}},
		{RAMEnd, class{name: "unmapped"}},
		{ROMStart - 1, class{name: "unmapped"}},
		{ROMStart, class{rom: true, name: "rom"}},
		{IRQVecFetch, class{rom: true, name: "rom"}},
		{periph.VecTimer, class{rom: true, name: "rom"}},
		{periph.VecADC, class{rom: true, name: "rom"}},
		{0xFFFF, class{rom: true, name: "rom"}},
	} {
		if got := classify(tc.addr); got != tc.want {
			t.Errorf("%#04x: got %+v, want %+v", tc.addr, got, tc.want)
		}
	}
}

// TestRegionsAreExclusive asserts the predicates partition the address
// space: no address is ever in two regions at once.
func TestRegionsAreExclusive(t *testing.T) {
	for a := uint32(0); a <= 0xFFFF; a += 2 {
		addr := uint16(a)
		n := 0
		for _, in := range []bool{InRAM(addr), InROM(addr), IsPeripheral(addr), InDeviceSpace(addr)} {
			if in {
				n++
			}
		}
		if n > 1 {
			t.Fatalf("%#04x classified into %d regions", addr, n)
		}
		if n == 0 && RegionName(addr) != "unmapped" {
			t.Fatalf("%#04x: no predicate claims it but RegionName says %q", addr, RegionName(addr))
		}
		if n == 1 && RegionName(addr) == "unmapped" {
			t.Fatalf("%#04x: claimed by a predicate but unnamed", addr)
		}
	}
}

// TestLayoutCoversVectors pins the interrupt plumbing's address
// assumptions: the vector indirection port and both vector-table entries
// live in ROM, above all application code the benchmarks place.
func TestLayoutCoversVectors(t *testing.T) {
	if !InROM(IRQVecFetch) {
		t.Fatal("IRQVecFetch must be a ROM address")
	}
	if IRQVecFetch >= periph.VecTimer {
		t.Fatal("vector indirection port must sit below the vector table")
	}
	if periph.VecTimer+2 != periph.VecADC {
		t.Fatal("vector table entries must be adjacent words")
	}
}

// TestDecoderMatchesPredicates decodes every byte address through one
// Decoder, in ascending order (long runs in one area) and in random
// order (a jump to a new area nearly every access): each must classify
// exactly as the predicates do, whatever area the Decoder hit last.
func TestDecoderMatchesPredicates(t *testing.T) {
	want := func(a uint16) int {
		switch {
		case InRAM(a):
			return TagRAM
		case InROM(a):
			return TagROM
		case IsPeripheral(a):
			return TagCoreReg
		case InDeviceSpace(a):
			return TagDevice
		}
		return TagUnmapped
	}
	var d Decoder
	check := func(a uint16) {
		if got, w := d.Tag(a), want(a); got != w {
			t.Fatalf("%#04x: decoded tag %d, want %d", a, got, w)
		}
	}
	for a := uint32(0); a <= 0xFFFF; a++ {
		check(uint16(a))
	}
	r := rand.New(rand.NewSource(1))
	for range 1 << 16 {
		check(uint16(r.Intn(1 << 16)))
	}
}

// TestBusClaimsDeviceSpace pins what the ULP430 bus decode relies on:
// the peripheral bus claims exactly the Layout's device space, so an
// access outside it never needs the bus's own lookup.
func TestBusClaimsDeviceSpace(t *testing.T) {
	b := periph.NewBus(periph.Config{}, false)
	for a := uint32(0); a <= 0xFFFF; a++ {
		if addr := uint16(a); b.Claims(addr) != InDeviceSpace(addr) {
			t.Fatalf("%#04x: bus claims %v, device space %v", addr, b.Claims(addr), InDeviceSpace(addr))
		}
	}
}
