package ulp430

import (
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/isa"
	"repro/internal/isim"
	"repro/internal/logic"
	"repro/internal/netlist"
)

var (
	cpuOnce sync.Once
	cpuNet  *netlist.Netlist
	cpuErr  error
)

func sharedCPU(t testing.TB) *netlist.Netlist {
	t.Helper()
	cpuOnce.Do(func() { cpuNet, cpuErr = BuildCPU() })
	if cpuErr != nil {
		t.Fatalf("BuildCPU: %v", cpuErr)
	}
	return cpuNet
}

func TestBuildCPUStats(t *testing.T) {
	n := sharedCPU(t)
	st := n.Stats(cell.ULP65())
	t.Logf("cells=%d seq=%d nets=%d levels=%d area=%.0fum2 modules=%v",
		st.Cells, st.Seq, st.Nets, st.Levels, st.AreaUM2, st.ByModule)
	if st.Cells < 2000 {
		t.Fatalf("implausibly small CPU: %d cells", st.Cells)
	}
	// Every paper module must be present.
	for _, m := range []string{"frontend", "exec_unit", "mem_backbone", "multiplier", "watchdog", "sfr", "dbg", "clk_module"} {
		if st.ByModule[m] == 0 {
			t.Errorf("module %s missing from netlist", m)
		}
	}
}

const haltSeq = `
    mov #1, &0x0126
spin: jmp spin
`

// diff runs src on both the ISS and the gate-level system and compares
// architectural state, checked RAM words, and cycle counts.
func diff(t *testing.T, name, src string, inputs []uint16, checkMem []uint16) {
	t.Helper()
	img, err := isa.Assemble(name, src)
	if err != nil {
		t.Fatalf("%s: assemble: %v", name, err)
	}
	iss, err := isim.New(img, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := iss.Run(200000); err != nil {
		t.Fatalf("%s: iss: %v", name, err)
	}

	sys, err := NewSystem(sharedCPU(t), cell.ULP65(), img, ConcreteInputs, inputs)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	start := sys.Sim.Cycle()
	if err := sys.RunToHalt(500000); err != nil {
		t.Fatalf("%s: gate-level: %v", name, err)
	}
	gateCycles := sys.Sim.Cycle() - start

	for r := 4; r <= 15; r++ {
		hw, ok := sys.Reg(r)
		if !ok {
			// Registers never written stay X in hardware; the ISS
			// zero-initializes. Only compare when the HW value is known.
			continue
		}
		if hw != iss.R[r] {
			t.Errorf("%s: r%d = %#04x (hw) vs %#04x (iss)", name, r, hw, iss.R[r])
		}
	}
	if hw, ok := sys.Reg(2); ok && hw != iss.R[2] {
		t.Errorf("%s: sr = %#04x (hw) vs %#04x (iss)", name, hw, iss.R[2])
	}
	for _, addr := range checkMem {
		hw := sys.MemWord(addr)
		v, ok := hw.Uint()
		if !ok {
			t.Errorf("%s: mem[%#04x] has X bits: %v", name, addr, hw)
			continue
		}
		if uint16(v) != iss.Mem(addr) {
			t.Errorf("%s: mem[%#04x] = %#04x (hw) vs %#04x (iss)", name, addr, v, iss.Mem(addr))
		}
	}
	// Cycle accounting: one BOOT cycle after reset release plus one cycle
	// of halt-latch latency.
	if gateCycles != iss.Cycles+2 {
		t.Errorf("%s: cycles = %d (hw) vs %d+2 (iss model)", name, gateCycles, iss.Cycles)
	}
}

func TestDiffBasicALU(t *testing.T) {
	diff(t, "alu", `
.org 0xf000
.entry main
main:
    mov #100, r4
    add #55, r4
    sub #16, r4
    mov #0x0f0f, r5
    and #0x00ff, r5
    bis #0x1000, r5
    xor #0x0011, r5
    bic #0x0001, r5
    mov #0xffff, r6
    add #1, r6
    addc #0, r6
    mov #10, r7
    subc #3, r7
    cmp #139, r4
    bit #1, r5
`+haltSeq, nil, nil)
}

func TestDiffShifts(t *testing.T) {
	diff(t, "shifts", `
.org 0xf000
.entry main
main:
    mov #0x8005, r4
    rra r4
    clrc
    rrc r4
    setc
    rrc r4
    mov #0x1234, r5
    swpb r5
    mov #0x0080, r6
    sxt r6
    mov #0x0040, r7
    sxt r7
    mov #3, r8
    rla r8
    rlc r8
`+haltSeq, nil, nil)
}

func TestDiffMemoryModes(t *testing.T) {
	diff(t, "mem", `
.equ RAM, 0x0200
.org RAM
arr:  .word 11, 22, 33, 44
out:  .space 6
.org 0xf000
.entry main
main:
    mov #arr, r4
    mov @r4+, r5
    add @r4+, r5        ; 33
    mov 2(r4), r6       ; 44
    mov &arr, r7        ; 11
    mov r5, &out
    mov r6, out+2
    mov #out, r9
    mov r7, 4(r9)
    add #1, out+2       ; 45 in memory
    cmp #45, out+2
`+haltSeq, nil, []uint16{0x0208, 0x020A, 0x020C})
}

// Regression: a memory source (SRC_RD) followed by an indexed/absolute
// destination must fetch the destination extension word at PC, not PC+2
// (the PC does not advance during SRC_RD).
func TestDiffMemSrcIndexedDst(t *testing.T) {
	diff(t, "memsrc-ixdst", `
.org 0x0200
src: .word 0x1111, 0x2222
dst: .space 4
.org 0xf000
.entry main
main:
    mov #src, r4
    mov #dst, r5
    mov @r4+, &dst      ; @Rn+ source, absolute destination
    mov @r4, 2(r5)      ; @Rn source, indexed destination
    add @r4, &dst       ; read-modify-write destination
    mov #1234, &0x0130  ; multiplier operand via absolute store
    mov #56, &0x0138
    nop
    mov &0x013a, r6
`+haltSeq, nil, []uint16{0x0204, 0x0206})
}

func TestDiffStackAndCall(t *testing.T) {
	diff(t, "stack", `
.org 0xf000
.entry main
main:
    mov #0x0a00, sp
    mov #5, r4
    push r4
    push #1234
    call #sum2
    pop r6
    pop r7
    mov r15, r8
`+haltSeq+`
sum2:
    mov #40, r15
    add #2, r15
    ret
`, nil, nil)
}

func TestDiffBranchLadder(t *testing.T) {
	diff(t, "branches", `
.org 0xf000
.entry main
main:
    mov #0, r10
    mov #-5, r4
    cmp #3, r4
    jl a1
    jmp end
a1: bis #1, r10
    cmp #3, r4
    jhs a2
    jmp end
a2: bis #2, r10
    mov #9, r5
    cmp #9, r5
    jeq a3
    jmp end
a3: bis #4, r10
    cmp #3, r5
    jge a4
    jmp end
a4: bis #8, r10
    mov #1, r7
    sub #2, r7
    jn a5
    jmp end
a5: bis #16, r10
    cmp #100, r5
    jnc a6          ; 9 - 100 borrows -> C=0
    jmp end
a6: bis #32, r10
end:
`+haltSeq, nil, nil)
}

func TestDiffLoopSum(t *testing.T) {
	diff(t, "loop", `
.org 0x0200
data: .input 6
sum:  .space 1
.org 0xf000
.entry main
main:
    mov #data, r4
    mov #6, r5
    clr r6
lp: add @r4+, r6
    dec r5
    jnz lp
    mov r6, &sum
`+haltSeq, []uint16{3, 9, 27, 81, 243, 729}, []uint16{0x020C})
}

func TestDiffMultiplier(t *testing.T) {
	diff(t, "mult", `
.org 0xf000
.entry main
main:
    mov #1234, &0x0130
    mov #567, &0x0138
    nop
    mov &0x013a, r4
    mov &0x013c, r5
    mov #40000, &0x0130
    mov #40000, &0x0138
    nop
    mov &0x013a, r6
    mov &0x013c, r7
`+haltSeq, nil, nil)
}

func TestDiffWatchdogAndPorts(t *testing.T) {
	img, err := isa.Assemble("wdt", `
.org 0xf000
.entry main
main:
    mov &0x0122, r4      ; read P1IN
    mov r4, &0x0124      ; echo to P1OUT
    mov #0x0080, &0x0120 ; hold watchdog
    mov &0x0120, r5
`+haltSeq)
	if err != nil {
		t.Fatal(err)
	}
	iss, _ := isim.New(img, nil)
	iss.PortIn = func() uint16 { return 0xA5C3 }
	if err := iss.Run(10000); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sharedCPU(t), cell.ULP65(), img, ConcreteInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.PortIn = func() uint16 { return 0xA5C3 }
	sys.Reset()
	if err := sys.RunToHalt(100000); err != nil {
		t.Fatal(err)
	}
	if hw, _ := sys.Reg(4); hw != 0xA5C3 {
		t.Errorf("P1IN read: %#04x", hw)
	}
	if hw, _ := sys.Reg(5); hw != 0x0080 {
		t.Errorf("WDTCTL readback: %#04x", hw)
	}
	p1, ok := sys.Sim.Port("p1out").Uint()
	if !ok || uint16(p1) != 0xA5C3 {
		t.Errorf("P1OUT = %#04x ok=%v", p1, ok)
	}
	// Watchdog must have counted, then stopped.
	w1, ok := sys.Sim.Port("wdtcnt").Uint()
	if !ok || w1 == 0 {
		t.Fatalf("wdtcnt = %d ok=%v", w1, ok)
	}
	sys.Step()
	sys.Step()
	w2, _ := sys.Sim.Port("wdtcnt").Uint()
	if w2 != w1 {
		t.Errorf("watchdog kept counting after hold: %d -> %d", w1, w2)
	}
}

func TestSymbolicInputsProduceXAndFork(t *testing.T) {
	img, err := isa.Assemble("sym", `
.org 0x0200
v: .input 1
.org 0xf000
.entry main
main:
    mov &v, r4
    cmp #5, r4
    jeq yes
    mov #1, r5
    jmp end
yes:
    mov #2, r5
end:
`+haltSeq)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sharedCPU(t), cell.ULP65(), img, SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	sawFork := false
	for i := 0; i < 200 && !sys.Halted(); i++ {
		if sys.JumpCondUnknown() {
			sawFork = true
			break
		}
		sys.Step()
	}
	if !sawFork {
		t.Fatal("symbolic input should make the jeq condition X")
	}
	// r4 must be X (loaded from symbolic input).
	if _, ok := sys.Reg(4); ok {
		t.Fatal("r4 should be X")
	}
}

func TestForceBranchAndSnapshotRestore(t *testing.T) {
	img, err := isa.Assemble("fork", `
.org 0x0200
v: .input 1
.org 0xf000
.entry main
main:
    mov &v, r4
    cmp #5, r4
    jeq yes
    mov #111, r5
    jmp end
yes:
    mov #222, r5
end:
`+haltSeq)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sharedCPU(t), cell.ULP65(), img, SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	var preFork *SysSnapshot
	for i := 0; i < 300; i++ {
		snap := sys.Snapshot()
		sys.Step()
		if sys.JumpCondUnknown() {
			preFork = snap
			break
		}
	}
	if preFork == nil {
		t.Fatal("no fork point found")
	}
	// Path A: branch not taken.
	sys.Restore(preFork)
	sys.ForceBranch(false)
	sys.Step()
	sys.ClearForce()
	for i := 0; i < 500 && !sys.Halted(); i++ {
		if sys.JumpCondUnknown() {
			t.Fatal("unexpected second fork")
		}
		sys.Step()
	}
	if !sys.Halted() {
		t.Fatal("path A did not halt")
	}
	r5a, ok := sys.Reg(5)
	if !ok || r5a != 111 {
		t.Fatalf("path A r5 = %d ok=%v", r5a, ok)
	}
	// Path B: restore and take the branch.
	sys.Restore(preFork)
	sys.ForceBranch(true)
	sys.Step()
	sys.ClearForce()
	for i := 0; i < 500 && !sys.Halted(); i++ {
		sys.Step()
	}
	r5b, ok := sys.Reg(5)
	if !ok || r5b != 222 {
		t.Fatalf("path B r5 = %d ok=%v", r5b, ok)
	}
}

func TestBusErrorDetection(t *testing.T) {
	cases := map[string]string{
		"store rom":  ".org 0xf000\n.entry main\nmain: mov r4, &0xf800\n" + haltSeq,
		"load unmap": ".org 0xf000\n.entry main\nmain: mov &0x1000, r4\n" + haltSeq,
	}
	for name, src := range cases {
		img, err := isa.Assemble(name, src)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(sharedCPU(t), cell.ULP65(), img, ConcreteInputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sys.Reset()
		if err := sys.RunToHalt(2000); err == nil {
			t.Errorf("%s: expected bus error", name)
		}
	}
}

func TestConcreteRunHasNoXInArchState(t *testing.T) {
	img, err := isa.Assemble("clean", `
.org 0xf000
.entry main
main:
    mov #0x0a00, sp
    mov #7, r4
    mov #9, r5
    add r4, r5
`+haltSeq)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sharedCPU(t), cell.ULP65(), img, ConcreteInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	if err := sys.RunToHalt(100000); err != nil {
		t.Fatal(err)
	}
	for _, port := range []string{"pc", "sr", "sp", "r4", "r5"} {
		if sys.Sim.Port(port).HasX() {
			t.Errorf("port %s has X after concrete run: %v", port, sys.Sim.Port(port))
		}
	}
	if v, _ := sys.Reg(5); v != 16 {
		t.Errorf("r5 = %d", v)
	}
}

func TestMemWordAndLogicRoundTrip(t *testing.T) {
	w := logic.Word{logic.H, logic.L, logic.X, logic.H, logic.L, logic.L, logic.X, logic.H,
		logic.L, logic.H, logic.L, logic.H, logic.X, logic.L, logic.H, logic.L}
	var m memWord
	for i, t := range w {
		switch t {
		case logic.H:
			m.val |= 1 << uint(i)
		case logic.X:
			m.xmask |= 1 << uint(i)
		}
	}
	back := make(logic.Word, 16)
	m.toLogic(back)
	if !w.Equal(back) {
		t.Fatalf("round trip: %v -> %v", w, back)
	}
}

// TestBusReadsRegisteredNets pins what gsim's Bus contract requires of
// System.Tick: every net it reads mid-step is a flip-flop output or a
// primary input. The latch leaves combinational nets stale until
// settle, so a bus read of one would see a value from two cycles back.
func TestBusReadsRegisteredNets(t *testing.T) {
	n := sharedCPU(t)
	registered := map[netlist.NetID]bool{}
	for _, ci := range n.Sequential() {
		registered[n.Cell(ci).Out] = true
	}
	for _, port := range []string{"men", "mwr", "mab", "mdb_out"} {
		for _, id := range n.Port(port) {
			if !registered[id] && !n.IsInput(id) {
				t.Errorf("bus port %s reads %s, neither a flip-flop output nor an input", port, n.NetName(id))
			}
		}
	}
}
