package secp256k1

import "math/big"

// Precomputed base-point tables, built once at package init from the
// authoritative big.Int parameters.
//
//   - gTable[w][d-1] = d · 16^w · G for d ∈ 1..15: a 4-bit windowed
//     decomposition of G multiples. ScalarBaseMult becomes at most 64
//     mixed additions with no doublings at all.
//   - gOdd[i] = (2i+1) · G for i ∈ 0..7: the odd multiples used by
//     the width-5 wNAF G terms of dual multiplication (Verify,
//     RecoverPubkey).
//   - gOddLambda[i] = λ·(2i+1)·G = (β·x, y) of gOdd[i]: the same
//     odd multiples of the endomorphism image λG.
//
// Memory: (64·15 + 16) affine points · 64 bytes ≈ 61 KiB, built in
// well under a millisecond thanks to batch normalization.
var (
	gTable     [64][15]affinePoint
	gOdd       [8]affinePoint
	gOddLambda [8]affinePoint
)

// feBeta is the cube root of unity mod p that matches scLambda:
// λ·(x, y) = (β·x, y) for every curve point. It is chosen in
// initEndomorphism.
var feBeta fieldElement

func init() {
	initScalarConstants()
	buildBaseTables()
	initEndomorphism()
}

// initEndomorphism picks, of the two cube roots of unity mod p, the
// β for which λ·G = (β·Gx, Gy), and maps gOdd to gOddLambda.
func initEndomorphism() {
	lg := scalarBaseMultJac(&scLambda)
	lgAff, _ := lg.toAffine()
	b1, b2 := cubeRootsOfUnity(P)
	for _, b := range []*big.Int{b1, b2} {
		feBeta.setBig(b)
		var x fieldElement
		x.mul(&gOdd[0].x, &feBeta)
		if x.equal(&lgAff.x) && gOdd[0].y.equal(&lgAff.y) {
			for i := range gOdd {
				gOddLambda[i].x.mul(&gOdd[i].x, &feBeta)
				gOddLambda[i].y = gOdd[i].y
			}
			return
		}
	}
	panic("secp256k1: no cube root of unity mod p matches λ")
}

func buildBaseTables() {
	var g affinePoint
	g.x.setBig(Gx)
	g.y.setBig(Gy)

	// windowBase walks 16^w·G; every table entry stays finite because
	// d·16^w < N for all d ≤ 15, w ≤ 63.
	var windowBase jacPoint
	windowBase.setAffine(&g)
	jacs := make([]jacPoint, 0, 64*15)
	for w := 0; w < 64; w++ {
		entry := windowBase
		jacs = append(jacs, entry)
		for d := 2; d <= 15; d++ {
			entry.add(&entry, &windowBase)
			jacs = append(jacs, entry)
		}
		windowBase.double(&windowBase)
		windowBase.double(&windowBase)
		windowBase.double(&windowBase)
		windowBase.double(&windowBase)
	}
	aff := batchToAffine(jacs)
	for w := 0; w < 64; w++ {
		copy(gTable[w][:], aff[w*15:(w+1)*15])
	}
	for i := 0; i < 8; i++ {
		gOdd[i] = gTable[0][2*i] // (2i+1)·G
	}
}

// scalarBaseMultJac computes k·G by walking the windowed table: one
// mixed addition per non-zero nibble of k.
func scalarBaseMultJac(k *scalar) jacPoint {
	var acc jacPoint
	for w := 0; w < 64; w++ {
		nib := (k.n[w/16] >> uint((w%16)*4)) & 15
		if nib != 0 {
			acc.addMixed(&acc, &gTable[w][nib-1])
		}
	}
	return acc
}

// scalarMultJac computes k·P with the GLV endomorphism: k splits into
// k1 + λ·k2 with halves below 2^129, so k·P = k1·P + k2·λP, and λP's
// odd multiples are P's with X scaled by β (8 field multiplications).
// One interleaved width-5 wNAF pass then takes about 129 doublings
// instead of 256, plus about 2·22 additions.
func scalarMultJac(p *jacPoint, k *scalar) jacPoint {
	if p.isInf() || k.isZero() {
		return jacPoint{}
	}
	k1, k2, neg1, neg2 := k.splitLambda()
	var naf1, naf2 [wnafMax]int8
	n := max(k1.wnaf(&naf1, wnafWidth), k2.wnaf(&naf2, wnafWidth))
	var tbl, tblLambda [8]jacPoint
	oddMultiples(&tbl, p)
	lambdaMultiples(&tblLambda, &tbl)
	var acc jacPoint
	for i := n - 1; i >= 0; i-- {
		acc.double(&acc)
		acc.addDigit(&tbl, naf1[i], neg1)
		acc.addDigit(&tblLambda, naf2[i], neg2)
	}
	return acc
}

// doubleScalarMultJac computes u1·G + u2·Q in one 4-way Straus pass:
// both scalars are GLV-split, so a single shared chain of about 129
// doublings serves G, λG (the static gOdd and gOddLambda tables, as
// mixed additions) and Q, λQ (eight odd multiples of Q and their
// β-mapped images).
func doubleScalarMultJac(u1 *scalar, q *jacPoint, u2 *scalar) jacPoint {
	g1, g2, gneg1, gneg2 := u1.splitLambda()
	var naf1, naf2, naf3, naf4 [wnafMax]int8
	n := max(g1.wnaf(&naf1, wnafWidth), g2.wnaf(&naf2, wnafWidth))
	var tbl, tblLambda [8]jacPoint
	var qneg1, qneg2 bool
	if !q.isInf() && !u2.isZero() {
		var q1, q2 scalar
		q1, q2, qneg1, qneg2 = u2.splitLambda()
		n = max(n, q1.wnaf(&naf3, wnafWidth), q2.wnaf(&naf4, wnafWidth))
		oddMultiples(&tbl, q)
		lambdaMultiples(&tblLambda, &tbl)
	}
	var acc jacPoint
	for i := n - 1; i >= 0; i-- {
		acc.double(&acc)
		acc.addDigitAffine(&gOdd, naf1[i], gneg1)
		acc.addDigitAffine(&gOddLambda, naf2[i], gneg2)
		acc.addDigit(&tbl, naf3[i], qneg1)
		acc.addDigit(&tblLambda, naf4[i], qneg2)
	}
	return acc
}

// oddMultiples fills tbl with P, 3P, …, 15P.
func oddMultiples(tbl *[8]jacPoint, p *jacPoint) {
	tbl[0] = *p
	var dbl jacPoint
	dbl.double(p)
	for i := 1; i < 8; i++ {
		tbl[i].add(&tbl[i-1], &dbl)
	}
}

// lambdaMultiples fills dst with λ·src: in Jacobian coordinates
// x = X/Z², so β·x needs only X scaled by β.
func lambdaMultiples(dst, src *[8]jacPoint) {
	for i := range src {
		dst[i] = src[i]
		dst[i].x.mul(&src[i].x, &feBeta)
	}
}

// addDigit adds d·T to r for a wNAF digit d, where tbl holds the odd
// multiples T, 3T, …, 15T; neg negates the digit.
func (r *jacPoint) addDigit(tbl *[8]jacPoint, d int8, neg bool) {
	if d == 0 {
		return
	}
	if (d < 0) == neg {
		r.add(r, &tbl[abs8(d)/2])
		return
	}
	e := tbl[abs8(d)/2]
	e.negAssign()
	r.add(r, &e)
}

// addDigitAffine is addDigit for a table of affine points, using
// mixed additions.
func (r *jacPoint) addDigitAffine(tbl *[8]affinePoint, d int8, neg bool) {
	if d == 0 {
		return
	}
	if (d < 0) == neg {
		r.addMixed(r, &tbl[abs8(d)/2])
		return
	}
	e := tbl[abs8(d)/2]
	e.y.neg(&e.y)
	r.addMixed(r, &e)
}

func abs8(d int8) int8 {
	if d < 0 {
		return -d
	}
	return d
}
