// Package logic implements the three-valued logic domain used by the
// symbolic gate-level simulator: the values 0, 1, and X (unknown).
//
// X models "any possible value": it is the abstraction the paper's
// input-independent activity analysis propagates for every signal that
// cannot be constrained by the application binary (Section 3.1). All
// operators are monotone over the information ordering (X above 0 and 1),
// so a concrete execution is always a refinement of a symbolic one — the
// property the validation experiments of Section 3.4 check end to end.
package logic

import "fmt"

// Trit is a three-valued logic level.
type Trit uint8

const (
	// L is logic low (0).
	L Trit = 0
	// H is logic high (1).
	H Trit = 1
	// X is the unknown value: it stands for "either 0 or 1".
	X Trit = 2
)

// FromBool converts a Go bool to a Trit.
func FromBool(b bool) Trit {
	if b {
		return H
	}
	return L
}

// FromBit converts the low bit of v to a Trit.
func FromBit(v uint64) Trit {
	if v&1 == 1 {
		return H
	}
	return L
}

// Known reports whether t is a definite 0 or 1.
func (t Trit) Known() bool { return t != X }

// Bit returns the concrete bit value of t; it panics if t is X.
// Use only on values already checked with Known.
func (t Trit) Bit() uint64 {
	switch t {
	case L:
		return 0
	case H:
		return 1
	}
	panic("logic: Bit() on X")
}

// String renders t as "0", "1", or "x" (VCD conventions).
func (t Trit) String() string {
	switch t {
	case L:
		return "0"
	case H:
		return "1"
	case X:
		return "x"
	}
	return fmt.Sprintf("Trit(%d)", uint8(t))
}

// Rune returns the single-character VCD representation of t.
func (t Trit) Rune() byte {
	switch t {
	case L:
		return '0'
	case H:
		return '1'
	default:
		return 'x'
	}
}

// ParseTrit converts a character ('0', '1', 'x'/'X') to a Trit.
func ParseTrit(c byte) (Trit, error) {
	switch c {
	case '0':
		return L, nil
	case '1':
		return H, nil
	case 'x', 'X', 'z', 'Z':
		return X, nil
	}
	return X, fmt.Errorf("logic: invalid trit character %q", c)
}

// Not returns three-valued NOT.
func Not(a Trit) Trit {
	switch a {
	case L:
		return H
	case H:
		return L
	}
	return X
}

// And returns three-valued AND. A controlling 0 dominates X.
func And(a, b Trit) Trit {
	if a == L || b == L {
		return L
	}
	if a == H && b == H {
		return H
	}
	return X
}

// Or returns three-valued OR. A controlling 1 dominates X.
func Or(a, b Trit) Trit {
	if a == H || b == H {
		return H
	}
	if a == L && b == L {
		return L
	}
	return X
}

// Xor returns three-valued XOR; any X input makes the output X.
func Xor(a, b Trit) Trit {
	if a == X || b == X {
		return X
	}
	if a == b {
		return L
	}
	return H
}

// Nand returns three-valued NAND.
func Nand(a, b Trit) Trit { return Not(And(a, b)) }

// Nor returns three-valued NOR.
func Nor(a, b Trit) Trit { return Not(Or(a, b)) }

// Xnor returns three-valued XNOR.
func Xnor(a, b Trit) Trit { return Not(Xor(a, b)) }

// Mux returns three-valued 2:1 multiplexer output: s==0 selects a, s==1
// selects b. When s is X the result is known only if both inputs agree —
// the standard "pessimistic X" mux semantics used by gate-level simulators.
func Mux(s, a, b Trit) Trit {
	switch s {
	case L:
		return a
	case H:
		return b
	}
	if a == b && a != X {
		return a
	}
	return X
}

// Word is a little-endian vector of trits: Word[0] is bit 0 (LSB).
type Word []Trit

// NewWord returns an n-bit word with every bit set to fill.
func NewWord(n int, fill Trit) Word {
	w := make(Word, n)
	if fill != L {
		for i := range w {
			w[i] = fill
		}
	}
	return w
}

// FromUint converts the low n bits of v into a concrete Word.
func FromUint(v uint64, n int) Word {
	w := make(Word, n)
	for i := 0; i < n; i++ {
		w[i] = FromBit(v >> uint(i))
	}
	return w
}

// AllX returns an n-bit word of all X.
func AllX(n int) Word { return NewWord(n, X) }

// Known reports whether every bit of w is a definite 0 or 1.
func (w Word) Known() bool {
	for _, t := range w {
		if t == X {
			return false
		}
	}
	return true
}

// HasX reports whether any bit of w is X.
func (w Word) HasX() bool { return !w.Known() }

// Uint returns the concrete value of w; ok is false if any bit is X.
func (w Word) Uint() (v uint64, ok bool) {
	for i, t := range w {
		if t == X {
			return 0, false
		}
		v |= t.Bit() << uint(i)
	}
	return v, true
}

// MustUint returns the concrete value of w and panics if any bit is X.
func (w Word) MustUint() uint64 {
	v, ok := w.Uint()
	if !ok {
		panic("logic: MustUint on word containing X")
	}
	return v
}

// Clone returns an independent copy of w.
func (w Word) Clone() Word {
	c := make(Word, len(w))
	copy(c, w)
	return c
}

// Equal reports symbol-wise equality of two words.
func (w Word) Equal(o Word) bool {
	if len(w) != len(o) {
		return false
	}
	for i := range w {
		if w[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders w MSB-first, e.g. "0001x0xx".
func (w Word) String() string {
	buf := make([]byte, len(w))
	for i := range w {
		buf[len(w)-1-i] = w[i].Rune()
	}
	return string(buf)
}

// ParseWord parses an MSB-first string of '0'/'1'/'x' characters.
func ParseWord(s string) (Word, error) {
	w := make(Word, len(s))
	for i := 0; i < len(s); i++ {
		t, err := ParseTrit(s[i])
		if err != nil {
			return nil, err
		}
		w[len(s)-1-i] = t
	}
	return w, nil
}

// Refines reports whether concrete word c is a refinement of symbolic word
// s: every known bit of s matches c, and c itself is fully known. This is
// the soundness relation used by the Section 3.4 validation: any value
// observable in a real execution must refine the symbolic value.
func Refines(c, s Word) bool {
	if len(c) != len(s) || !c.Known() {
		return false
	}
	for i := range s {
		if s[i] != X && s[i] != c[i] {
			return false
		}
	}
	return true
}
