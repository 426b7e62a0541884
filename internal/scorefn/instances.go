package scorefn

import "math"

// ExpWIN is the paper's Equation (1): the product of individual match
// scores decayed exponentially with the window length,
//
//	(Πj score(mj)) · e^(−α · window).
//
// In Definition 3 terms, g_j(x)=ln x and f(x,y)=exp(x−αy), which is
// monotone in the required directions and satisfies optimal
// substructure. Alpha must be positive. Scores must be positive
// (the paper draws them from (0,1]).
type ExpWIN struct {
	Alpha float64
}

func (e ExpWIN) G(_ int, score float64) float64 { return math.Log(score) }

func (e ExpWIN) F(gsum, window float64) float64 { return math.Exp(gsum - e.Alpha*window) }

// KeySlope and Lift expose the separable form F = exp(gsum − α·window)
// (WINSeparable), letting the WIN kernel compare keys instead of
// calling exp per subset.
func (e ExpWIN) KeySlope() float64        { return e.Alpha }
func (e ExpWIN) Lift(key float64) float64 { return math.Exp(key) }
func (e ExpWIN) TermExchangeable()        {}

// LinearWIN is the WIN instance from the paper's TREC experiment
// (footnote 9): g_j(x)=x/Scale, f(x,y)=x−y. The paper uses Scale=0.3,
// the decrement of its WordNet-distance match scores.
type LinearWIN struct {
	Scale float64
}

func (l LinearWIN) G(_ int, score float64) float64 { return score / l.Scale }

func (l LinearWIN) F(gsum, window float64) float64 { return gsum - window }

// KeySlope and Lift expose the separable form F = gsum − 1·window with
// the identity lift (WINSeparable).
func (l LinearWIN) KeySlope() float64        { return 1 }
func (l LinearWIN) Lift(key float64) float64 { return key }
func (l LinearWIN) TermExchangeable()        {}

// ExpMED is the paper's Equation (3): the product of individual match
// scores, each decayed exponentially with its distance to the median
// location,
//
//	Πj ( score(mj) · e^(−α·|loc(mj) − median(M)|) ).
//
// In Definition 5 terms, f(x)=e^(αx) and g_j(x)=ln(x)/α. Alpha must be
// positive and scores positive.
type ExpMED struct {
	Alpha float64
}

func (e ExpMED) G(_ int, score float64) float64 { return math.Log(score) / e.Alpha }

func (e ExpMED) F(total float64) float64 { return math.Exp(e.Alpha * total) }
func (e ExpMED) TermExchangeable()       {}

// LinearMED is the MED instance from the paper's TREC experiment
// (footnote 9): g_j(x)=x/Scale, f(x)=x, with Scale=0.3.
type LinearMED struct {
	Scale float64
}

func (l LinearMED) G(_ int, score float64) float64 { return score / l.Scale }

func (l LinearMED) F(total float64) float64 { return total }
func (l LinearMED) TermExchangeable()       {}

// ProdMAX is the paper's Equation (4): the MAX generalization of
// ExpMED,
//
//	max_l Πj ( score(mj) · e^(−α·|loc(mj) − l|) ).
//
// In Definition 7 terms, f(x)=e^x and g_j(x,y)=ln(x)−αy. The
// contribution curves are tent functions in log space, so the family
// is at-most-one-crossing and maximized-at-match (Lemma 3).
type ProdMAX struct {
	Alpha float64
}

func (p ProdMAX) Contribution(_ int, score, dist float64) float64 {
	return math.Log(score) - p.Alpha*dist
}

func (p ProdMAX) F(total float64) float64 { return math.Exp(total) }

func (p ProdMAX) AtMostOneCrossing() bool { return true }
func (p ProdMAX) TermExchangeable()       {}

// SumMAX is the paper's Equation (5): the sum of exponentially
// distance-decayed match scores,
//
//	max_l Σj ( score(mj) · e^(−α·|loc(mj) − l|) ),
//
// generalizing Chakrabarti et al.'s scoring function. In Definition 7
// terms, f is the identity and g_j(x,y)=x·e^(−αy). Lemma 3 shows the
// family is at-most-one-crossing and maximized-at-match. This is the
// MAX function the paper's TREC and DBWorld experiments use (α=0.1).
type SumMAX struct {
	Alpha float64
}

func (s SumMAX) Contribution(_ int, score, dist float64) float64 {
	return score * math.Exp(-s.Alpha*dist)
}

func (s SumMAX) F(total float64) float64 { return total }

func (s SumMAX) AtMostOneCrossing() bool { return true }
func (s SumMAX) TermExchangeable()       {}

// MEDAsMAX adapts a MED scoring function to the MAX interface with
// c_j(m,l) = g_j(score(m)) − |loc(m)−l|. It is used by the envelope
// machinery, which is shared between MED and MAX (Section V notes the
// definitions of dominance and upper envelopes are identical up to the
// contribution function). MED tent contributions have slopes ±1 so
// they are at-most-one-crossing.
type MEDAsMAX struct {
	MED
}

func (a MEDAsMAX) Contribution(term int, score, dist float64) float64 {
	return a.G(term, score) - dist
}

func (a MEDAsMAX) AtMostOneCrossing() bool { return true }

// WeightedWIN scales each term's transformed score by a positive
// per-term weight: g_j(x) = Weights[j]·Base.G(j, x). The paper's
// definitions deliberately allow a different g_j per term — weights
// express that a match for, say, the entity term matters more than one
// for a function word. Terms beyond len(Weights) keep weight 1.
// Weights must be positive for g_j to remain increasing.
type WeightedWIN struct {
	Base    WIN
	Weights []float64
}

func (w WeightedWIN) G(term int, score float64) float64 {
	return w.weight(term) * w.Base.G(term, score)
}

func (w WeightedWIN) F(gsum, window float64) float64 { return w.Base.F(gsum, window) }

func (w WeightedWIN) weight(term int) float64 {
	if term < len(w.Weights) {
		return w.Weights[term]
	}
	return 1
}

// WeightedMED is the per-term weighted form of a MED scoring function;
// see WeightedWIN.
type WeightedMED struct {
	Base    MED
	Weights []float64
}

func (w WeightedMED) G(term int, score float64) float64 {
	if term < len(w.Weights) {
		return w.Weights[term] * w.Base.G(term, score)
	}
	return w.Base.G(term, score)
}

func (w WeightedMED) F(total float64) float64 { return w.Base.F(total) }

var (
	_ WIN          = ExpWIN{}
	_ WIN          = LinearWIN{}
	_ WIN          = WeightedWIN{}
	_ WINSeparable = ExpWIN{}
	_ WINSeparable = LinearWIN{}
	_ MED          = ExpMED{}
	_ MED          = LinearMED{}
	_ MED          = WeightedMED{}
	_ EfficientMAX = ProdMAX{}
	_ EfficientMAX = SumMAX{}
	_ EfficientMAX = MEDAsMAX{}
)
