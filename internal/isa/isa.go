// Package isa defines the ULP430 instruction set — an MSP430-compatible
// 16-bit subset — together with its binary encoding, a decoder, an
// assembler, and a disassembler. The co-analysis consumes application
// *binaries* (Figure 3.1: "Design Binary"); this package produces and
// interprets them.
//
// Supported subset (word operations only):
//
//   - Format I (double operand): MOV ADD ADDC SUB SUBC CMP BIT BIC BIS XOR AND
//   - Format II (single operand): RRC RRA SWPB SXT PUSH CALL RETI
//   - Jumps: JNE JEQ JNC JC JN JGE JL JMP
//   - Addressing: Rn, x(Rn), @Rn, @Rn+, #imm, &abs, and the MSP430
//     constant generator (R3/R2 special cases)
//   - Emulated mnemonics: NOP POP RET BR CLR TST INC INCD DEC DECD INV
//     RLA RLC SETC CLRC EINT DINT
//
// Byte-mode (.B) operations and DADD are intentionally out of scope; the
// assembler rejects them. The benchmarks of Table 4.1 are written
// against this subset; the ISR benchmarks additionally use RETI and the
// GIE-manipulating EINT/DINT emulations.
package isa

import "fmt"

// Register names. R0..R3 have architectural roles.
const (
	// PC is the program counter (R0).
	PC = 0
	// SP is the stack pointer (R1).
	SP = 1
	// SR is the status register / constant generator 1 (R2).
	SR = 2
	// CG is constant generator 2 (R3).
	CG = 3
)

// Status-register flag bits.
const (
	// FlagC is the carry flag (bit 0).
	FlagC = 1 << 0
	// FlagZ is the zero flag (bit 1).
	FlagZ = 1 << 1
	// FlagN is the negative flag (bit 2).
	FlagN = 1 << 2
	// FlagV is the overflow flag (bit 8).
	FlagV = 1 << 8
	// FlagGIE is the global interrupt enable (bit 3): interrupt entry
	// clears it (after pushing SR) and RETI restores it.
	FlagGIE = 1 << 3
)

// Format distinguishes the three MSP430 encoding formats.
type Format uint8

// Instruction formats.
const (
	// FmtI is the double-operand format.
	FmtI Format = iota
	// FmtII is the single-operand format.
	FmtII
	// FmtJump is the conditional-jump format.
	FmtJump
	// FmtIllegal marks undecodable words.
	FmtIllegal
)

// Op is a decoded operation.
type Op uint8

// Format I operations (values are the opcode field).
const (
	MOV  Op = 0x4
	ADD  Op = 0x5
	ADDC Op = 0x6
	SUBC Op = 0x7
	SUB  Op = 0x8
	CMP  Op = 0x9
	BIT  Op = 0xB
	BIC  Op = 0xC
	BIS  Op = 0xD
	XOR  Op = 0xE
	AND  Op = 0xF
)

// Format II operations (16 + the 3-bit opcode field, to keep values
// distinct from Format I).
const (
	RRC  Op = 16 + 0
	SWPB Op = 16 + 1
	RRA  Op = 16 + 2
	SXT  Op = 16 + 3
	PUSH Op = 16 + 4
	CALL Op = 16 + 5
	RETI Op = 16 + 6
)

// Jump conditions (32 + the 3-bit condition field).
const (
	JNE Op = 32 + 0
	JEQ Op = 32 + 1
	JNC Op = 32 + 2
	JC  Op = 32 + 3
	JN  Op = 32 + 4
	JGE Op = 32 + 5
	JL  Op = 32 + 6
	JMP Op = 32 + 7
)

var opNames = map[Op]string{
	MOV: "MOV", ADD: "ADD", ADDC: "ADDC", SUBC: "SUBC", SUB: "SUB",
	CMP: "CMP", BIT: "BIT", BIC: "BIC", BIS: "BIS", XOR: "XOR", AND: "AND",
	RRC: "RRC", SWPB: "SWPB", RRA: "RRA", SXT: "SXT", PUSH: "PUSH", CALL: "CALL",
	RETI: "RETI",
	JNE:  "JNE", JEQ: "JEQ", JNC: "JNC", JC: "JC", JN: "JN", JGE: "JGE",
	JL: "JL", JMP: "JMP",
}

// String returns the canonical mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Addressing modes (the As field; Ad is 0 = AmReg or 1 = AmIndexed).
const (
	// AmReg is register direct (Rn).
	AmReg = 0
	// AmIndexed is indexed x(Rn); with Rn=SR it is absolute &addr.
	AmIndexed = 1
	// AmIndirect is register indirect @Rn.
	AmIndirect = 2
	// AmIndirectInc is indirect with post-increment @Rn+; with Rn=PC it
	// is immediate #imm.
	AmIndirectInc = 3
)

// Instr is one decoded instruction.
type Instr struct {
	// Format is the encoding format (FmtIllegal if undecodable).
	Format Format
	// Op is the operation.
	Op Op
	// Src and Dst are register fields (Format II uses Dst only).
	Src, Dst uint8
	// As is the source addressing mode; Ad the destination mode (0/1).
	As, Ad uint8
	// Off is the jump offset in words (sign-extended).
	Off int16
	// SrcExt and DstExt are the extension words, valid per HasSrcExt /
	// HasDstExt.
	SrcExt, DstExt uint16
	// HasSrcExt / HasDstExt report whether extension words are present.
	HasSrcExt, HasDstExt bool
}

// ConstGen resolves the MSP430 constant generator: for (reg, as)
// combinations that encode constants it returns (value, true).
func ConstGen(reg, as uint8) (uint16, bool) {
	switch reg {
	case CG:
		switch as {
		case AmReg:
			return 0, true
		case AmIndexed:
			return 1, true
		case AmIndirect:
			return 2, true
		case AmIndirectInc:
			return 0xFFFF, true
		}
	case SR:
		switch as {
		case AmIndirect:
			return 4, true
		case AmIndirectInc:
			return 8, true
		}
	}
	return 0, false
}

// SrcNeedsExt reports whether the source operand consumes an extension
// word: indexed/absolute (except the R3 constant) and immediate (@PC+).
func SrcNeedsExt(reg, as uint8) bool {
	if _, isConst := ConstGen(reg, as); isConst && !(reg == SR && as == AmIndexed) {
		return false
	}
	switch as {
	case AmIndexed:
		return true // x(Rn), &abs, symbolic
	case AmIndirectInc:
		return reg == PC // #imm
	}
	return false
}

// DstNeedsExt reports whether the destination operand consumes an
// extension word (any Ad=1 destination).
func DstNeedsExt(ad uint8) bool { return ad == 1 }

// SrcIsMem reports whether the source operand performs a data-memory read.
// Immediates and constant-generator values do not.
func SrcIsMem(reg, as uint8) bool {
	if _, isConst := ConstGen(reg, as); isConst {
		return false
	}
	switch as {
	case AmIndexed:
		return true
	case AmIndirect:
		return true
	case AmIndirectInc:
		return reg != PC
	}
	return false
}

// ReadsDst reports whether the operation consumes the old destination
// value (MOV does not; everything else in Format I does).
func ReadsDst(op Op) bool {
	return op != MOV
}

// WritesDst reports whether the operation writes the destination
// (CMP and BIT only set flags).
func WritesDst(op Op) bool {
	return op != CMP && op != BIT
}

// Decode decodes the instruction word w. Extension words must be supplied
// afterwards via AttachExt (the decoder reports how many are needed).
func Decode(w uint16) Instr {
	switch {
	case w>>13 == 0b001: // jump
		off := int16(w & 0x3FF)
		if off&0x200 != 0 {
			off |= ^int16(0x3FF) // sign extend 10 bits
		}
		return Instr{Format: FmtJump, Op: 32 + Op((w>>10)&7), Off: off}
	case w>>10 == 0b000100: // Format II
		opc := Op(16 + (w>>7)&7)
		if opc > RETI { // reserved encoding: unsupported
			return Instr{Format: FmtIllegal}
		}
		if opc == RETI {
			if w&0x7F != 0 { // RETI has no operand; the As/Dst bits must be 0
				return Instr{Format: FmtIllegal}
			}
			return Instr{Format: FmtII, Op: RETI}
		}
		if w&(1<<6) != 0 { // byte mode unsupported
			return Instr{Format: FmtIllegal}
		}
		ins := Instr{
			Format: FmtII,
			Op:     opc,
			Dst:    uint8(w & 0xF),
			As:     uint8((w >> 4) & 3),
		}
		ins.HasSrcExt = SrcNeedsExt(ins.Dst, ins.As)
		return ins
	case w>>12 >= 0x4: // Format I
		op := Op(w >> 12)
		if op == 0xA { // DADD unsupported
			return Instr{Format: FmtIllegal}
		}
		if w&(1<<6) != 0 { // byte mode unsupported
			return Instr{Format: FmtIllegal}
		}
		ins := Instr{
			Format: FmtI,
			Op:     op,
			Src:    uint8((w >> 8) & 0xF),
			Ad:     uint8((w >> 7) & 1),
			As:     uint8((w >> 4) & 3),
			Dst:    uint8(w & 0xF),
		}
		ins.HasSrcExt = SrcNeedsExt(ins.Src, ins.As)
		ins.HasDstExt = DstNeedsExt(ins.Ad)
		return ins
	}
	return Instr{Format: FmtIllegal}
}

// NumExtWords returns how many extension words follow the instruction
// word (0..2).
func (i Instr) NumExtWords() int {
	n := 0
	if i.HasSrcExt {
		n++
	}
	if i.HasDstExt {
		n++
	}
	return n
}

// AttachExt fills in the extension words in program order (source first).
func (i *Instr) AttachExt(ws []uint16) error {
	if len(ws) != i.NumExtWords() {
		return fmt.Errorf("isa: %s needs %d extension words, got %d", i.Op, i.NumExtWords(), len(ws))
	}
	k := 0
	if i.HasSrcExt {
		i.SrcExt = ws[k]
		k++
	}
	if i.HasDstExt {
		i.DstExt = ws[k]
	}
	return nil
}

// Len returns the total instruction length in words.
func (i Instr) Len() int { return 1 + i.NumExtWords() }

// Encode produces the instruction word sequence (1-3 words).
func (i Instr) Encode() ([]uint16, error) {
	var w uint16
	switch i.Format {
	case FmtI:
		w = uint16(i.Op)<<12 | uint16(i.Src)<<8 | uint16(i.Ad)<<7 |
			uint16(i.As)<<4 | uint16(i.Dst)
	case FmtII:
		w = 0b000100<<10 | uint16(i.Op-16)<<7 | uint16(i.As)<<4 | uint16(i.Dst)
	case FmtJump:
		if i.Off < -512 || i.Off > 511 {
			return nil, fmt.Errorf("isa: jump offset %d out of range", i.Off)
		}
		w = 0b001<<13 | uint16(i.Op-32)<<10 | uint16(i.Off)&0x3FF
	default:
		return nil, fmt.Errorf("isa: cannot encode illegal instruction")
	}
	out := []uint16{w}
	if i.HasSrcExt {
		out = append(out, i.SrcExt)
	}
	if i.HasDstExt {
		out = append(out, i.DstExt)
	}
	return out, nil
}

// Cycles returns the number of clock cycles the ULP430 multi-cycle
// implementation spends on this instruction. The instruction-set
// simulator uses this model, and the gate-level cross-validation tests
// assert that the hardware matches it exactly.
func (i Instr) Cycles() int {
	switch i.Format {
	case FmtJump:
		return 2 // FETCH + EXEC
	case FmtI:
		c := 2 // FETCH + EXEC
		c += srcCycles(i.Src, i.As)
		if i.Ad == 1 {
			c++ // DOFF_RD
			if ReadsDst(i.Op) {
				c++ // DST_RD
			}
			if WritesDst(i.Op) {
				c++ // DST_WR
			}
		}
		return c
	case FmtII:
		c := 2 // FETCH + EXEC
		c += srcCycles(i.Dst, i.As)
		switch i.Op {
		case RETI:
			c += 2 // RETI1 (pop SR) + RETI2 (pop PC)
		case PUSH, CALL:
			c++ // DST_WR (stack push)
		default: // RRC RRA SWPB SXT write back to their operand
			if i.As != AmReg {
				c++ // DST_WR to memory operand
			}
		}
		return c
	}
	return 1
}

func srcCycles(reg, as uint8) int {
	if _, isConst := ConstGen(reg, as); isConst {
		return 0
	}
	switch as {
	case AmReg:
		return 0
	case AmIndexed:
		return 2 // SOFF_RD + SRC_RD
	case AmIndirect:
		return 1 // SRC_RD
	case AmIndirectInc:
		return 1 // SRC_RD, or SOFF_RD for #imm — both 1 cycle
	}
	return 0
}
