package gsim_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/gsim"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// driveBus drives a port from Tick, inside the step: through a compiled
// WordPort (word) or net by net with SetNet.
type driveBus struct {
	on, word bool
	nets     []netlist.NetID
	port     gsim.WordPort
	v, k     uint64
}

func (b *driveBus) Tick(s *gsim.Simulator) {
	if !b.on {
		return
	}
	if b.word {
		b.port.Drive(s, b.v, b.k)
		return
	}
	for i, id := range b.nets {
		s.SetNet(id, bitTrit(b.v, b.k, i))
	}
}

// bitTrit is bit i of a (value, known) word pair as a trit.
func bitTrit(v, k uint64, i int) logic.Trit {
	switch {
	case k>>uint(i)&1 == 0:
		return logic.X
	case v>>uint(i)&1 == 1:
		return logic.H
	}
	return logic.L
}

// portCounts tallies which port shapes and paths TestPortWords reached.
type portCounts struct {
	consecutive, scattered, withX, known, staged, inStep int
}

// TestPortWords checks compiled ports against the per-net path on both
// engines, on random and bus-shaped designs and on the ULP430. A read
// (Planes and Uint) must equal per-net Val for consecutive ports,
// scattered ports and ports holding X bits; a Drive, staged outside a
// step or written from a Bus inside one, must leave planes word-equal
// to per-net SetNet. Ports wider than 64 bits are rejected when
// compiled, and Drive rejects a port with a driven net.
func TestPortWords(t *testing.T) {
	designs, cycles := 24, 60
	if testing.Short() {
		designs, cycles = 8, 30
	}
	var c portCounts
	for d := 0; d < designs; d++ {
		r := rand.New(rand.NewSource(int64(424_242 * (d + 1))))
		gen := gsim.RandomNetlist
		if d%4 == 3 {
			gen = gsim.WideNetlist
		}
		n := gen(t, r)
		for _, e := range []gsim.Engine{gsim.EnginePacked, gsim.EngineScalar} {
			checkPortWords(t, r, n, e, cycles, &c)
		}
		if in := n.Port("in"); len(in) > 64 {
			if !panics(func() { gsim.CompilePort(n, in) }) {
				t.Fatalf("design %d: a %d-net port compiled", d, len(in))
			}
			s := gsim.New(n, cell.ULP65(), nil)
			if !panics(func() { s.PortUint("in") }) {
				t.Fatalf("design %d: PortUint read a %d-net port", d, len(in))
			}
		}
	}

	cpu := irqCPU(t)
	for _, name := range []string{"mab", "pc", "mdb_out", "mdb_in", "state"} {
		if p := gsim.CompilePort(cpu, cpu.Port(name)); !p.Consecutive() {
			t.Errorf("ULP430 port %s did not compile to consecutive positions", name)
		}
	}
	r := rand.New(rand.NewSource(99))
	for _, e := range []gsim.Engine{gsim.EnginePacked, gsim.EngineScalar} {
		checkPortWords(t, r, cpu, e, cycles, &c)
	}
	driven := gsim.CompilePort(cpu, cpu.Port("mab"))
	if !panics(func() { driven.Drive(gsim.New(cpu, cell.ULP65(), nil), 1, 1) }) {
		t.Fatal("Drive wrote the flip-flop-driven port mab")
	}

	t.Logf("consecutive %d, scattered %d, with X %d, known %d, staged drives %d, in-step drives %d",
		c.consecutive, c.scattered, c.withX, c.known, c.staged, c.inStep)
	if c.consecutive == 0 || c.scattered == 0 || c.withX == 0 || c.known == 0 || c.staged == 0 || c.inStep == 0 {
		t.Fatal("a port shape or drive path went unexercised")
	}
}

// checkPortWords runs two simulators of n on engine e, one driven by
// compiled ports and one net by net, and compares their planes and
// every port read each cycle.
func checkPortWords(t *testing.T, r *rand.Rand, n *netlist.Netlist, e gsim.Engine, cycles int, c *portCounts) {
	t.Helper()
	pos := n.Packed().Pos
	var nets, ins []netlist.NetID // all nets and the inputs, by position
	for id := range netlist.NetID(n.NumNets()) {
		nets = append(nets, id)
	}
	slices.SortFunc(nets, func(a, b netlist.NetID) int { return int(pos[a] - pos[b]) })
	for _, id := range nets {
		if n.IsInput(id) {
			ins = append(ins, id)
		}
	}
	// pick draws a port of up to 64 nets from from: a run of
	// consecutive positions, or a random scatter in random order.
	pick := func(from []netlist.NetID) ([]netlist.NetID, gsim.WordPort) {
		l := 1 + r.Intn(min(64, len(from)))
		var port []netlist.NetID
		if r.Intn(2) == 0 {
			i := r.Intn(len(from) - l + 1)
			port = from[i : i+1]
			for j := i + 1; j < i+l && pos[from[j]] == pos[from[j-1]]+1; j++ {
				port = from[i : j+1]
			}
		} else {
			for _, k := range r.Perm(len(from))[:l] {
				port = append(port, from[k])
			}
		}
		return port, gsim.CompilePort(n, port)
	}

	wordBus, netBus := &driveBus{word: true}, &driveBus{}
	word := gsim.NewEngine(n, cell.ULP65(), wordBus, e)
	ref := gsim.NewEngine(n, cell.ULP65(), netBus, e)
	var sw, sr gsim.Snapshot
	for cyc := 0; cyc < cycles; cyc++ {
		if r.Intn(2) == 0 {
			port, p := pick(ins)
			v, k := r.Uint64(), r.Uint64()
			p.Drive(word, v, k)
			for i, id := range port {
				ref.SetNet(id, bitTrit(v, k, i))
			}
			c.staged++
		}
		wordBus.on = r.Intn(2) == 0
		if wordBus.on {
			wordBus.nets, wordBus.port = pick(ins)
			wordBus.v, wordBus.k = r.Uint64(), r.Uint64()
			*netBus = *wordBus
			netBus.word = false
			c.inStep++
		}
		netBus.on = wordBus.on
		word.Step()
		ref.Step()

		word.SnapshotInto(&sw)
		ref.SnapshotInto(&sr)
		if !slices.Equal(sw.PlaneV, sr.PlaneV) || !slices.Equal(sw.PlaneK, sr.PlaneK) ||
			!slices.Equal(sw.PrevPlaneV, sr.PrevPlaneV) || !slices.Equal(sw.PrevPlaneK, sr.PrevPlaneK) {
			t.Fatalf("%s %v cycle %d: planes after word drives differ from per-net SetNet", n.Name, e, cyc)
		}
		if wb, rb := word.BoundEnergyFJ(), ref.BoundEnergyFJ(); wb != rb {
			t.Fatalf("%s %v cycle %d: bound %v after word drives, %v after SetNet", n.Name, e, cyc, wb, rb)
		}

		for range 4 {
			port, p := pick(nets)
			if p.Consecutive() {
				c.consecutive++
			} else {
				c.scattered++
			}
			var wantV, wantK uint64
			for i, id := range port {
				switch word.Val(id) {
				case logic.H:
					wantV |= 1 << uint(i)
					wantK |= 1 << uint(i)
				case logic.L:
					wantK |= 1 << uint(i)
				}
			}
			full := wantK == ^uint64(0)>>(64-uint(len(port)))
			if full {
				c.known++
			} else {
				c.withX++
			}
			if v, k := p.Planes(word); v != wantV || k != wantK {
				t.Fatalf("%s %v cycle %d: port of %d nets read %#x/%#x, per-net Val %#x/%#x",
					n.Name, e, cyc, len(port), v, k, wantV, wantK)
			}
			v, ok := p.Uint(word)
			if ok != full || ok && v != wantV {
				t.Fatalf("%s %v cycle %d: Uint %#x %v, per-net Val %#x known %v", n.Name, e, cyc, v, ok, wantV, full)
			}
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
