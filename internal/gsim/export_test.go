package gsim

// Hooks for the external test package, whose tests also run the ULP430
// (ulp430 imports gsim, so they cannot live in package gsim).
var (
	RandomNetlist = randomNetlist
	WideNetlist   = wideNetlist
)

// Consecutive reports whether the port compiled to one run of
// consecutive plane positions.
func (p *WordPort) Consecutive() bool { return p.first >= 0 }
