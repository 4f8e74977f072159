package gsim

// Hooks for the external test package, whose tests also run the ULP430
// (ulp430 imports gsim, so they cannot live in package gsim).
var (
	CounterDesign = counterDesign
	RandomNetlist = randomNetlist
	WideNetlist   = wideNetlist
)

// FlipFlopRegion returns the flip-flop region of the planes: its first
// word and its per-word bit mask.
func (s *Simulator) FlipFlopRegion() (lo int, mask []uint64) { return s.ffLo, s.ffMask }

// Consecutive reports whether the port compiled to one run of
// consecutive plane positions.
func (p *WordPort) Consecutive() bool { return p.first >= 0 }
