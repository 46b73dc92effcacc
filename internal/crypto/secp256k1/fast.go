package secp256k1

import "math/big"

// Conversions between the public affine Point and the fixed-limb
// Jacobian form, and the scalar products more than one public
// function needs. Scalars must already be reduced mod N.

func pointToJac(p *Point) jacPoint {
	if p.IsInfinity() {
		return jacPoint{}
	}
	var j jacPoint
	j.x.setBig(p.X)
	j.y.setBig(p.Y)
	j.z = feOne
	return j
}

func jacToPoint(j *jacPoint) *Point {
	a, ok := j.toAffine()
	if !ok {
		return &Point{}
	}
	return &Point{X: a.x.toBig(), Y: a.y.toBig()}
}

// scalarBaseMult returns k·G.
func scalarBaseMult(k *big.Int) *Point {
	var s scalar
	s.setBig(k)
	j := scalarBaseMultJac(&s)
	return jacToPoint(&j)
}

// doubleScalarBaseMult returns k1·G + k2·p in a single Shamir pass.
func doubleScalarBaseMult(k1 *big.Int, p *Point, k2 *big.Int) *Point {
	var s1, s2 scalar
	s1.setBig(k1)
	s2.setBig(k2)
	pj := pointToJac(p)
	j := doubleScalarMultJac(&s1, &pj, &s2)
	return jacToPoint(&j)
}
