package join

import "math"

// gFunc is the per-term score transform g_j shared by the WIN and MED
// families (scorefn.WIN and scorefn.MED both satisfy it).
type gFunc interface {
	G(term int, score float64) float64
}

// gMemoSlots is the number of direct-mapped memo slots per query term.
// Match scores come from a small set per term in practice (a concept's
// expansion weights), so a few dozen slots hold them all.
const (
	gMemoBits  = 6
	gMemoSlots = 1 << gMemoBits
)

// gMemo remembers g_j(score) by the score's exact bits, so a kernel
// evaluates the transform (a math.Log for the exponential families)
// once per distinct (term, score) instead of once per use: WIN needs
// it once per match per run, MED around 3·|Q| times per match, and the
// duplicate-avoidance wrapper reruns the kernel on sub-instances made
// of the same matches. A hit returns the float64 G returned for the
// same bits, so scores stay bit-identical to calling G every time; a
// slot conflict just evaluates G again. The memo outlives documents —
// G is a pure function of (term, score) — and is dropped when the
// scoring function is swapped.
type gMemo struct {
	fn    gFunc   // the kernel's fn, converted once: g is on the hot path
	slots []gSlot // gMemoSlots per term
	gen   uint32  // slots stamped otherwise are empty
}

type gSlot struct {
	bits uint64
	g    float64
	gen  uint32
}

// bind points the memo at fn and forgets everything remembered under
// the previous function.
func (m *gMemo) bind(fn gFunc) {
	m.fn = fn
	if m.gen++; m.gen == 0 {
		clear(m.slots) // stamp wrap-around: really wipe, once per 2^32 binds
		m.gen = 1
	}
}

// grow makes room for q terms; new slots carry stamp 0, which is never
// the live generation.
func (m *gMemo) grow(q int) {
	if need := q * gMemoSlots; len(m.slots) < need {
		slots := make([]gSlot, need)
		copy(slots, m.slots)
		m.slots = slots
	}
}

// g returns fn.G(term, score). term must be below the last grow.
func (m *gMemo) g(term int, score float64) float64 {
	bits := math.Float64bits(score)
	s := &m.slots[term*gMemoSlots+int(bits*0x9e3779b97f4a7c15>>(64-gMemoBits))]
	if s.gen != m.gen || s.bits != bits {
		*s = gSlot{bits: bits, g: m.fn.G(term, score), gen: m.gen}
	}
	return s.g
}
