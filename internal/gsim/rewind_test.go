package gsim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/logic"
)

// TestRewindEqualsRestore steps two simulators of one engine in
// lockstep on the random designs of TestEnginesAgreeOnRandomNetlists,
// with the step memo on: before every cycle one marks and the other
// takes a full snapshot, and a random share of cycles is rewound and
// re-stepped up to twice (a cycle that forks on a jump and then on an
// interrupt), one simulator with Rewind and the other with Restore.
// Inputs are staged before the mark on some cycles (the mark must bring
// them back) and after it on others (a fork's forces). After every step
// and every rewind the two must hold the same planes, activity, energy
// bound, staged inputs, cycle and memo chain, and their step tables
// must have taken the same hits, misses, edge replays and successor
// predictions.
func TestRewindEqualsRestore(t *testing.T) {
	designs, cycles := 60, 80
	if testing.Short() {
		designs, cycles = 15, 40
	}
	var rewinds, chainedRewinds int
	for d := 0; d < designs; d++ {
		r := rand.New(rand.NewSource(int64(1_000_003 * (d + 1))))
		gen := randomNetlist
		if d%4 == 3 {
			gen = wideNetlist
		}
		n := gen(t, r)
		for _, e := range []Engine{EnginePacked, EngineScalar} {
			rw := NewEngine(n, cell.ULP65(), nil, e)
			rs := NewEngine(n, cell.ULP65(), nil, e)
			rw.EnableMemo(0)
			rs.EnableMemo(0)
			w := make(logic.Word, len(n.Port("in")))
			stage := func() {
				rw.SetPort("in", w)
				rs.SetPort("in", w)
			}
			for c := 0; c < cycles; c++ {
				if hold := c >= cycles/4 && c < cycles/2; !hold {
					for i := range w {
						w[i] = randomTrit(r)
					}
				}
				early := r.Intn(3) == 0
				if early {
					stage()
				}
				rw.Mark()
				sn := rs.Snapshot()
				for forks := 0; ; forks++ {
					if !early {
						stage()
					}
					rw.Step()
					rs.Step()
					sameState(t, rw, rs, c, "step")
					if forks == 2 || r.Intn(4) != 0 {
						break
					}
					if rw.pk != nil && rw.pk.chain != nil {
						chainedRewinds++
					}
					if err := rw.Rewind(); err != nil {
						t.Fatalf("design %d %v cycle %d: %v", d, e, c, err)
					}
					rs.Restore(sn)
					sameState(t, rw, rs, c, "rewind")
					rewinds++
					if !early && r.Intn(2) == 0 {
						// The next direction re-steps under other forces.
						w[r.Intn(len(w))] = randomTrit(r)
					}
				}
			}
		}
	}
	t.Logf("rewinds %d, from a chained memo entry %d", rewinds, chainedRewinds)
	if rewinds == 0 || chainedRewinds == 0 {
		t.Fatal("no rewind from a memo-replayed cycle was exercised")
	}
}

// sameState fails the test unless rw and rs hold the same net state,
// bound, staged inputs, cycle and memo chain.
func sameState(t *testing.T, rw, rs *Simulator, cycle int, after string) {
	t.Helper()
	for _, pl := range []struct {
		name   string
		rw, rs []uint64
	}{
		{"curV", rw.curV, rs.curV}, {"curK", rw.curK, rs.curK},
		{"prevV", rw.prevV, rs.prevV}, {"prevK", rw.prevK, rs.prevK},
		{"act", rw.act, rs.act},
	} {
		if w := firstWordDiff(pl.rw, pl.rs); w >= 0 {
			t.Fatalf("%v cycle %d after %s: %s differs at word %d", rw.engine, cycle, after, pl.name, w)
		}
	}
	if a, b := rw.BoundEnergyFJ(), rs.BoundEnergyFJ(); a != b {
		t.Fatalf("%v cycle %d after %s: bound %v, restored %v", rw.engine, cycle, after, a, b)
	}
	if !slices.Equal(rw.staged, rs.staged) || rw.cycle != rs.cycle {
		t.Fatalf("%v cycle %d after %s: staged %v at cycle %d, restored %v at cycle %d",
			rw.engine, cycle, after, rw.staged, rw.cycle, rs.staged, rs.cycle)
	}
	if rw.pk == nil {
		return
	}
	if a, b := rw.pk.chain, rs.pk.chain; (a == nil) != (b == nil) ||
		a != nil && !slices.Equal(entryWords(a), entryWords(b)) {
		t.Fatalf("packed cycle %d after %s: memo chain differs from the restored simulator's", cycle, after)
	}
	if after == "rewind" && rw.pk.chain != nil {
		t.Fatalf("packed cycle %d: Rewind left the memo chain set", cycle)
	}
	a, b := rw.pk.stepMemo, rs.pk.stepMemo
	if a.edgeReplays != b.edgeReplays || a.nextHits != b.nextHits {
		t.Fatalf("packed cycle %d after %s: %d edge replays and %d successor hits, restored %d and %d",
			cycle, after, a.edgeReplays, a.nextHits, b.edgeReplays, b.nextHits)
	}
	h1, m1 := rw.MemoStats()
	h2, m2 := rs.MemoStats()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("packed cycle %d after %s: memo %d/%d, restored %d/%d", cycle, after, h1, m1, h2, m2)
	}
}

// TestRewindRefuses checks that Rewind changes nothing and reports an
// error unless exactly one Step has run since Mark with no Restore in
// between, on both engines, and that a refused rewind leaves the mark
// usable only as the rule allows.
func TestRewindRefuses(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := randomNetlist(t, r)
	for _, e := range []Engine{EnginePacked, EngineScalar} {
		s := NewEngine(n, cell.ULP65(), nil, e)
		w := make(logic.Word, len(n.Port("in")))
		step := func() {
			for i := range w {
				w[i] = randomTrit(r)
			}
			s.SetPort("in", w)
			s.Step()
		}
		refuse := func(why string) {
			t.Helper()
			before := s.Snapshot()
			act := slices.Clone(s.act)
			if err := s.Rewind(); err == nil {
				t.Fatalf("%v: Rewind %s succeeded", e, why)
			}
			after := s.Snapshot()
			if !slices.Equal(before.PlaneV, after.PlaneV) || !slices.Equal(before.PlaneK, after.PlaneK) ||
				!slices.Equal(before.PrevPlaneV, after.PrevPlaneV) || !slices.Equal(before.PrevPlaneK, after.PrevPlaneK) ||
				!slices.Equal(act, s.act) || !slices.Equal(before.Staged, after.Staged) || before.Cycle != after.Cycle {
				t.Fatalf("%v: a refused Rewind %s changed the state", e, why)
			}
		}
		step()
		refuse("without a mark")
		s.Mark()
		refuse("with no Step since the mark")
		step()
		step()
		refuse("two Steps after the mark")

		s.Mark()
		step()
		sn := s.Snapshot()
		step()
		s.Restore(sn) // back at the mark's cycle + 1, but not by a Step
		refuse("after a Restore")

		s.Mark()
		step()
		if err := s.Rewind(); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		refuse("twice with no Step between")
		step()
		if err := s.Rewind(); err != nil {
			t.Fatalf("%v: a re-stepped cycle does not rewind to its mark: %v", e, err)
		}
	}
}
