package gsim_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/gsim"
	"repro/internal/isa"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/periph"
	"repro/internal/ulp430"
)

// TestStateHashDistinguishesStates pins StateHash, the flip-flop half of
// the exploration's merge key, to the flip-flop values and nothing else,
// on the counter, the random netlists of TestEnginesAgreeOnRandomNetlists
// and the ULP430 running an interrupt program with concrete and with
// symbolic inputs:
//   - the flip-flop region's mask covers exactly the Sequential()
//     outputs;
//   - over the sampled states of both engines, equal hashes go with
//     equal flip-flop trit vectors and the reverse, and the engines
//     hash each cycle alike;
//   - at the last sampled state, each of a flip-flop's three trits
//     hashes differently, while any other net (primary inputs included)
//     may change without moving the hash.
func TestStateHashDistinguishesStates(t *testing.T) {
	designs := 8
	if testing.Short() {
		designs = 4
	}
	var samples, repeats int
	check := func(name string, sims [2]*gsim.Simulator, step func(), cycles int) {
		t.Helper()
		n := sims[0].Netlist()
		checkFlipFlopRegion(t, name, sims[0])
		hashOf := map[string][2]uint64{}
		vecOf := map[[2]uint64]string{}
		for c := 0; c < cycles; c++ {
			step()
			var keys [2][2]uint64
			for e, s := range sims {
				lo, hi := s.StateHash()
				key, vec := [2]uint64{lo, hi}, flipFlopTrits(s)
				keys[e] = key
				if h, ok := hashOf[vec]; ok {
					if e == 0 {
						repeats++
					}
					if h != key {
						t.Fatalf("%s cycle %d, %v: equal flip-flop values hash to %x and %x", name, c, s.Engine(), h, key)
					}
				}
				if v, ok := vecOf[key]; ok && v != vec {
					t.Fatalf("%s cycle %d, %v: hash %x covers two flip-flop states", name, c, s.Engine(), key)
				}
				hashOf[vec], vecOf[key] = key, vec
			}
			samples++
			if keys[0] != keys[1] {
				t.Fatalf("%s cycle %d: scalar hash %x, packed %x", name, c, keys[0], keys[1])
			}
		}
		for _, s := range sims {
			checkHashReadsOnlyFlipFlops(t, name, n, s)
		}
		lo, mask := sims[0].FlipFlopRegion()
		t.Logf("%s: %d flip-flops in plane words [%d, %d), %d states in %d cycles",
			name, len(n.Sequential()), lo, lo+len(mask), len(hashOf), cycles)
	}

	// The counter, with its data input drawn at random.
	cnt := gsim.CounterDesign(t)
	var sims [2]*gsim.Simulator
	for e, engine := range []gsim.Engine{gsim.EngineScalar, gsim.EnginePacked} {
		sims[e] = gsim.NewEngine(cnt, cell.ULP65(), nil, engine)
	}
	r := rand.New(rand.NewSource(1))
	c := 0
	check("counter", sims, func() {
		rst, din := uint64(0), uint64(r.Intn(2))
		if c < 2 {
			rst = 1
		}
		c++
		for _, s := range sims {
			s.SetPortUint("rst", rst)
			s.SetPortUint("din", din)
			s.Step()
		}
	}, 40)

	// The random netlists, driven as TestEnginesAgreeOnRandomNetlists
	// drives them, held inputs included.
	for d := 0; d < designs; d++ {
		r := rand.New(rand.NewSource(int64(1_000_003 * (d + 1))))
		gen := gsim.RandomNetlist
		if d%4 == 3 {
			gen = gsim.WideNetlist
		}
		n := gen(t, r)
		var sims [2]*gsim.Simulator
		for e, engine := range []gsim.Engine{gsim.EngineScalar, gsim.EnginePacked} {
			sims[e] = gsim.NewEngine(n, cell.ULP65(), nil, engine)
		}
		w := make(logic.Word, len(n.Port("in")))
		c, cycles := 0, 60
		check(fmt.Sprintf("random netlist %d", d), sims, func() {
			if hold := c >= cycles/4 && c < cycles/2; !hold {
				for i := range w {
					w[i] = logic.Trit(r.Intn(3))
				}
			}
			c++
			for _, s := range sims {
				s.SetPort("in", w)
				s.Step()
			}
		}, cycles)
	}

	// The ULP430.
	img, err := isa.Assemble("statehash", concreteIRQProg(20, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ulp430.InputMode{ulp430.ConcreteInputs, ulp430.SymbolicInputs} {
		var systems [2]*ulp430.System
		for e, engine := range []gsim.Engine{gsim.EngineScalar, gsim.EnginePacked} {
			sys, err := ulp430.NewSystemEngine(engine, irqCPU(t), cell.ULP65(), img, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			sys.EnableInterrupts(periph.Config{MinLatency: 3, MaxLatency: 9, ConcreteLatency: 5})
			sys.Reset()
			systems[e] = sys
			sims[e] = sys.Sim
		}
		check("ulp430", sims, func() {
			for _, sys := range systems {
				sys.Step()
			}
		}, 300)
	}

	t.Logf("%d of %d sampled states repeat an earlier one", repeats, samples)
	if repeats == 0 || repeats == samples {
		t.Fatalf("%d of %d sampled states repeat an earlier one; want some but not all", repeats, samples)
	}
}

// flipFlopTrits renders the flip-flop outputs' values, in Sequential()
// order.
func flipFlopTrits(s *gsim.Simulator) string {
	n := s.Netlist()
	b := make([]byte, 0, len(n.Sequential()))
	for _, ci := range n.Sequential() {
		b = append(b, "01X"[s.Val(n.Cell(ci).Out)])
	}
	return string(b)
}

// checkFlipFlopRegion asserts that the flip-flop region's mask selects
// exactly the plane positions of the Sequential() outputs.
func checkFlipFlopRegion(t *testing.T, name string, s *gsim.Simulator) {
	t.Helper()
	n := s.Netlist()
	pos := n.Packed().Pos
	var want []int
	for _, ci := range n.Sequential() {
		want = append(want, int(pos[n.Cell(ci).Out]))
	}
	slices.Sort(want)
	lo, mask := s.FlipFlopRegion()
	var got []int
	for i, m := range mask {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &^= 1 << uint(b)
			got = append(got, 64*(lo+i)+b)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: flip-flop mask selects positions %v, the flip-flops sit at %v", name, got, want)
	}
}

// checkHashReadsOnlyFlipFlops perturbs s's current state one net at a
// time: each flip-flop through its three trits, which must hash three
// ways, and every other net to another trit, which must not move the
// hash. It leaves s as it found it.
func checkHashReadsOnlyFlipFlops(t *testing.T, name string, n *netlist.Netlist, s *gsim.Simulator) {
	t.Helper()
	orig := s.Snapshot()
	pert := s.Snapshot()
	defer s.Restore(orig)
	pos := n.Packed().Pos
	hashWith := func(id netlist.NetID, v logic.Trit) [2]uint64 {
		copy(pert.PlaneV, orig.PlaneV)
		copy(pert.PlaneK, orig.PlaneK)
		p := pos[id]
		w, mask := p>>6, uint64(1)<<uint(p&63)
		pert.PlaneV[w] &^= mask
		pert.PlaneK[w] &^= mask
		if v != logic.X {
			pert.PlaneK[w] |= mask
			if v == logic.H {
				pert.PlaneV[w] |= mask
			}
		}
		s.Restore(pert)
		lo, hi := s.StateHash()
		return [2]uint64{lo, hi}
	}
	s.Restore(orig)
	lo, hi := s.StateHash()
	base := [2]uint64{lo, hi}
	vals := make([]logic.Trit, n.NumNets())
	for id := range vals {
		vals[id] = s.Val(netlist.NetID(id))
	}
	isFF := make([]bool, n.NumNets())
	for _, ci := range n.Sequential() {
		out := n.Cell(ci).Out
		isFF[out] = true
		var h [3][2]uint64
		for v := range h {
			h[v] = hashWith(out, logic.Trit(v))
		}
		if h[0] == h[1] || h[1] == h[2] || h[2] == h[0] {
			t.Fatalf("%s, %v: flip-flop %s hashes L %x, H %x, X %x", name, s.Engine(), n.NetName(out), h[0], h[1], h[2])
		}
		if h[vals[out]] != base {
			t.Fatalf("%s, %v: flip-flop %s set to its own value %v moves the hash", name, s.Engine(), n.NetName(out), vals[out])
		}
	}
	for id := netlist.NetID(0); int(id) < n.NumNets(); id++ {
		if isFF[id] {
			continue
		}
		if got := hashWith(id, (vals[id]+1)%3); got != base {
			t.Fatalf("%s, %v: net %s (position %d, not a flip-flop) moves the hash", name, s.Engine(), n.NetName(id), pos[id])
		}
	}
}
