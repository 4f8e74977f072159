package gsim

import (
	"maps"
	"math"
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
// on a fresh table, or plants a collision: the next step's lookup finds
// another entry in its slot and records a fresh entry over it, while a
// predecessor's link still names the replaced entry. The replaced entry
// must come out of the collision unchanged, and a later step must
// replay it through that stale link. Planes must be word-equal and
// bounds equal every cycle, and the runs must have replayed edges,
// taken successor predictions and replayed stale links.
func TestStepMemoChain(t *testing.T) {
	designs, cycles := 48, 300
	if testing.Short() {
		designs, cycles = 16, 200
	}
	var edges, nexts, excursions, restores, reenables, collisions, staleReplays int
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
		// planted is the entry a collision replaces this step, if any,
		// and plantedWords a copy of its planes; stale holds the
		// replaced entries of the current table.
		var planted *stepEntry
		var plantedWords []uint64
		stale := map[*stepEntry]bool{}
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
				clear(stale)
				reenables++
			case k == 4:
				if planted = plantCollision(memo.pk); planted != nil {
					plantedWords = entryWords(planted)
				}
			}
			for _, s := range sims {
				s.SetPort("in", w)
				s.Step()
			}
			if planted != nil {
				if !slices.Equal(entryWords(planted), plantedWords) {
					t.Fatalf("design %d cycle %d: a colliding record rewrote the entry it replaced", d, c)
				}
				if !slices.Contains(slices.Collect(maps.Values(memo.pk.stepMemo.entries)), planted) {
					stale[planted] = true
					collisions++
				}
				planted = nil
			} else if stale[memo.pk.chain] {
				staleReplays++
			}
			compareEngines(t, n, scalar, memo, c)
			compareEngines(t, n, packed, memo, c)
			if pe, me := packed.BoundEnergyFJ(), memo.BoundEnergyFJ(); pe != me {
				t.Fatalf("design %d cycle %d: memo bound %v, live packed bound %v", d, c, me, pe)
			}
		}
		drain()
	}
	t.Logf("edge replays %d, successor hits %d, excursions %d, restores %d, re-enables %d, collisions %d, stale replays %d",
		edges, nexts, excursions, restores, reenables, collisions, staleReplays)
	if edges == 0 || nexts == 0 || excursions == 0 || restores == 0 || reenables == 0 ||
		collisions == 0 || staleReplays == 0 {
		t.Fatal("a chained-memo path went unexercised")
	}
}

// plantCollision sets up a colliding record on the next step of p, if
// it would follow the chain's predicted successor S: it moves another
// entry V, one that some entry's link names, out of its own slot into
// S's and drops the prediction. The step's lookup then hashes to S's
// slot, finds V, fails to verify it and records a fresh entry in its
// place, so V is left in no slot while its predecessor still links to
// it. It returns V, or nil when the table offers no such pair.
func plantCollision(p *packedSim) *stepEntry {
	from := p.chain
	if from == nil || from.next == nil {
		return nil
	}
	st := p.stepMemo
	linked := map[*stepEntry]bool{}
	for _, e := range st.entries {
		linked[e.next] = true
	}
	// Walk the keys in order: the choice must not depend on map order.
	var sKey, vKey uint64
	var victim *stepEntry
	for _, k := range slices.Sorted(maps.Keys(st.entries)) {
		if e := st.entries[k]; e == from.next {
			sKey = k
		} else if victim == nil && linked[e] {
			vKey, victim = k, e
		}
	}
	if victim == nil || st.entries[sKey] != from.next {
		return nil
	}
	delete(st.entries, vKey)
	st.entries[sKey] = victim
	from.next = nil
	return victim
}

// entryWords copies an entry's recorded planes and bound.
func entryWords(e *stepEntry) []uint64 {
	return append(slices.Clone(e.src), append(slices.Clone(e.out), math.Float64bits(e.bound))...)
}
