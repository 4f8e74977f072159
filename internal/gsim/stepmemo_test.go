package gsim

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/logic"
)

// TestStepMemoChain checks the chained step memo (a replayed edge and a
// predicted successor) against a memo-less packed simulator and the
// scalar oracle. Random designs run held-input orbits, where every step
// starts from a chained entry; between chained steps the test stages a
// one-cycle input excursion, rewinds with Restore, re-enables the memo
// on a fresh table, or forces an in-place overwrite of an entry that
// holds a cached edge. Planes must be word-equal and bounds equal every
// cycle, and the runs must have replayed edges and taken successor
// predictions.
func TestStepMemoChain(t *testing.T) {
	designs, cycles := 48, 300
	if testing.Short() {
		designs, cycles = 16, 200
	}
	var edges, nexts, excursions, restores, reenables, overwrites int
	for d := 0; d < designs; d++ {
		r := rand.New(rand.NewSource(int64(31_337 * (d + 1))))
		gen := randomNetlist
		if d%4 == 3 {
			gen = wideNetlist
		}
		n := gen(t, r)
		scalar := NewEngine(n, cell.ULP65(), nil, EngineScalar)
		packed := NewEngine(n, cell.ULP65(), nil, EnginePacked)
		memo := NewEngine(n, cell.ULP65(), nil, EnginePacked)
		memo.EnableMemo(0)
		sims := []*Simulator{scalar, packed, memo}
		drain := func() {
			st := memo.pk.stepMemo
			edges += int(st.edgeReplays)
			nexts += int(st.nextHits)
		}

		held := make(logic.Word, len(n.Port("in")))
		for i := range held {
			held[i] = randomTrit(r)
		}
		w := make(logic.Word, len(held))
		var snaps []*Snapshot
		// planted is the entry this step is forced to overwrite in
		// place, if any.
		var planted *stepEntry
		for c := 0; c < cycles; c++ {
			copy(w, held)
			chained := memo.pk.chain != nil && memo.pk.chain.edgeOK
			switch k := r.Intn(24); {
			case k == 0 && chained:
				// A one-cycle excursion: the edge replays from the
				// chain, under inputs it was not learned with.
				for range 1 + r.Intn(3) {
					i := r.Intn(len(w))
					w[i] = logic.Trit((int(w[i]) + 1 + r.Intn(2)) % 3)
				}
				excursions++
			case k == 1 && snaps == nil:
				snaps = []*Snapshot{scalar.Snapshot(), packed.Snapshot(), memo.Snapshot()}
			case k == 2 && snaps != nil && chained:
				for i, s := range sims {
					s.Restore(snaps[i])
				}
				compareEngines(t, n, scalar, memo, c)
				snaps = nil
				restores++
			case k == 3 && r.Intn(8) == 0:
				drain()
				memo.EnableMemo(0)
				reenables++
			case k == 4:
				planted = plantOverwrite(memo.pk)
			}
			for _, s := range sims {
				s.SetPort("in", w)
				s.Step()
			}
			if planted != nil && memo.pk.chain == planted && !planted.edgeOK {
				overwrites++
			}
			planted = nil
			compareEngines(t, n, scalar, memo, c)
			compareEngines(t, n, packed, memo, c)
			if pe, me := packed.BoundEnergyFJ(), memo.BoundEnergyFJ(); pe != me {
				t.Fatalf("design %d cycle %d: memo bound %v, live packed bound %v", d, c, me, pe)
			}
		}
		drain()
	}
	t.Logf("edge replays %d, successor hits %d, excursions %d, restores %d, re-enables %d, overwrites %d",
		edges, nexts, excursions, restores, reenables, overwrites)
	if edges == 0 || nexts == 0 || excursions == 0 || restores == 0 || reenables == 0 || overwrites == 0 {
		t.Fatal("a chained-memo path went unexercised")
	}
}

// plantOverwrite forces the next step of p, if it follows the chain's
// predicted successor, into an in-place overwrite: it drops the
// prediction and files another entry, one holding a cached edge, under
// the successor's key, so the lookup finds an entry that fails
// verification and records over it. It returns that entry, or nil when
// the chain offers no such pair.
func plantOverwrite(p *packedSim) *stepEntry {
	from := p.chain
	if from == nil || from.next == nil {
		return nil
	}
	st := p.stepMemo
	// Walk the keys in order: the choice must not depend on map order.
	keys := slices.Sorted(maps.Keys(st.entries))
	var key uint64
	var victim *stepEntry
	for _, k := range keys {
		if e := st.entries[k]; e == from.next {
			key = k
		} else if victim == nil && e.edgeOK && e.next != nil {
			victim = e
		}
	}
	if victim == nil {
		return nil
	}
	st.entries[key] = victim
	from.next = nil
	return victim
}
