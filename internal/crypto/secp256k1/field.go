package secp256k1

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// fieldElement is an integer modulo the field prime
// p = 2^256 − 2^32 − 977, stored as four little-endian uint64 limbs.
// Every operation leaves its result fully reduced (< p), so equality
// is plain limb comparison. Like the rest of this package the
// arithmetic is variable-time by design: this is a measurement stack,
// not a wallet (see DESIGN.md).
type fieldElement struct {
	n [4]uint64
}

// pC is 2^256 − p = 2^32 + 977. Because p is this close to 2^256,
// reduction is "folding": v mod p = low 256 bits + pC * high bits.
const pC = 0x1000003D1

var (
	feZero = fieldElement{}
	feOne  = fieldElement{n: [4]uint64{1, 0, 0, 0}}
	feB    = fieldElement{n: [4]uint64{7, 0, 0, 0}} // curve constant b

	feP = fieldElement{n: [4]uint64{
		0xFFFFFFFEFFFFFC2F, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
	}}
)

// limbsFromBig converts a non-negative big.Int < 2^256 to limbs.
func limbsFromBig(x *big.Int) [4]uint64 {
	var b [32]byte
	x.FillBytes(b[:])
	var l [4]uint64
	for i := 0; i < 4; i++ {
		l[i] = binary.BigEndian.Uint64(b[(3-i)*8:])
	}
	return l
}

func limbsToBig(l *[4]uint64) *big.Int {
	var b [32]byte
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(b[(3-i)*8:], l[i])
	}
	return new(big.Int).SetBytes(b[:])
}

// setBytes loads a 32-byte big-endian value, reducing mod p. A single
// conditional subtraction suffices because 2^256 < 2p.
func (r *fieldElement) setBytes(b *[32]byte) {
	for i := 0; i < 4; i++ {
		r.n[i] = binary.BigEndian.Uint64(b[(3-i)*8:])
	}
	r.condSubP()
}

func (r *fieldElement) bytes() [32]byte {
	var b [32]byte
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(b[(3-i)*8:], r.n[i])
	}
	return b
}

// setBig loads a big.Int in [0, 2^256), reducing mod p.
func (r *fieldElement) setBig(x *big.Int) {
	r.n = limbsFromBig(x)
	r.condSubP()
}

func (r *fieldElement) toBig() *big.Int { return limbsToBig(&r.n) }

func (r *fieldElement) isZero() bool {
	return r.n[0]|r.n[1]|r.n[2]|r.n[3] == 0
}

func (r *fieldElement) isOdd() bool { return r.n[0]&1 == 1 }

func (r *fieldElement) equal(a *fieldElement) bool { return r.n == a.n }

// condSubP subtracts p once if r ≥ p. Any value in [p, 2^256) has
// three all-ones top limbs and a low limb ≥ p's, and subtracting p
// leaves just the low-limb difference.
func (r *fieldElement) condSubP() {
	if r.n[3]&r.n[2]&r.n[1] == ^uint64(0) && r.n[0] >= feP.n[0] {
		r.n = [4]uint64{r.n[0] - feP.n[0], 0, 0, 0}
	}
}

// add sets r = a + b mod p. Result aliasing is allowed.
func (r *fieldElement) add(a, b *fieldElement) {
	var c uint64
	n0, c := bits.Add64(a.n[0], b.n[0], 0)
	n1, c := bits.Add64(a.n[1], b.n[1], c)
	n2, c := bits.Add64(a.n[2], b.n[2], c)
	n3, c := bits.Add64(a.n[3], b.n[3], c)
	// Fold the 2^256 overflow bit: 2^256 ≡ pC. With canonical inputs
	// the folded sum cannot overflow again (a+b−2^256+pC < 2^256).
	n0, c2 := bits.Add64(n0, c*pC, 0)
	n1, c2 = bits.Add64(n1, 0, c2)
	n2, c2 = bits.Add64(n2, 0, c2)
	n3, _ = bits.Add64(n3, 0, c2)
	r.n = [4]uint64{n0, n1, n2, n3}
	r.condSubP()
}

// sub sets r = a − b mod p. Result aliasing is allowed.
func (r *fieldElement) sub(a, b *fieldElement) {
	n0, br := bits.Sub64(a.n[0], b.n[0], 0)
	n1, br := bits.Sub64(a.n[1], b.n[1], br)
	n2, br := bits.Sub64(a.n[2], b.n[2], br)
	n3, br := bits.Sub64(a.n[3], b.n[3], br)
	// If that wrapped, the register value is a−b+2^256; subtracting
	// pC yields a−b+p, which is in range and cannot underflow. The
	// borrow is a coin flip on random inputs, so it selects pC by mask
	// rather than by branch.
	n0, br = bits.Sub64(n0, pC&-br, 0)
	n1, br = bits.Sub64(n1, 0, br)
	n2, br = bits.Sub64(n2, 0, br)
	n3, _ = bits.Sub64(n3, 0, br)
	r.n = [4]uint64{n0, n1, n2, n3}
}

// neg sets r = −a mod p.
func (r *fieldElement) neg(a *fieldElement) {
	if a.isZero() {
		*r = feZero
		return
	}
	var br uint64
	r.n[0], br = bits.Sub64(feP.n[0], a.n[0], 0)
	r.n[1], br = bits.Sub64(feP.n[1], a.n[1], br)
	r.n[2], br = bits.Sub64(feP.n[2], a.n[2], br)
	r.n[3], _ = bits.Sub64(feP.n[3], a.n[3], br)
}

// mulSmall sets r = a * k mod p for a small constant k (used for the
// 2·, 3·, 4·, 8· steps of the point formulas).
func (r *fieldElement) mulSmall(a *fieldElement, k uint64) {
	var carry uint64
	var n [4]uint64
	for i := 0; i < 4; i++ {
		h, lo := bits.Mul64(a.n[i], k)
		v, c := bits.Add64(lo, carry, 0)
		n[i] = v
		carry = h + c
	}
	// carry < k; fold carry*pC.
	h, lo := bits.Mul64(carry, pC)
	var c uint64
	n[0], c = bits.Add64(n[0], lo, 0)
	n[1], c = bits.Add64(n[1], h, c)
	n[2], c = bits.Add64(n[2], 0, c)
	n[3], c = bits.Add64(n[3], 0, c)
	// A second wrap leaves a value below carry·pC < 8·2^33, all in
	// n[0], so adding pC once more cannot carry out of the low limb.
	n[0] += c * pC
	r.n = n
	r.condSubP()
}

// mul sets r = a · b mod p. Result aliasing is allowed.
func (r *fieldElement) mul(a, b *fieldElement) { r.reduce(mul512(&a.n, &b.n)) }

// sqr sets r = a² mod p. Result aliasing is allowed.
func (r *fieldElement) sqr(a *fieldElement) { r.reduce(sqr512(&a.n)) }

// sqrN sets r = a^(2^n) for n ≥ 1: n repeated squarings.
func (r *fieldElement) sqrN(a *fieldElement, n int) {
	r.sqr(a)
	for i := 1; i < n; i++ {
		r.sqr(r)
	}
}

// mul512 returns the 512-bit product a·b as little-endian limbs: the
// 16 limb products one row of a at a time, each row's halves summed
// with one carry chain and added into the accumulator with another.
// No top limb can overflow: the total after row i is below
// 2^(64·(i+5)).
func mul512(a, b *[4]uint64) (t0, t1, t2, t3, t4, t5, t6, t7 uint64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	var c uint64
	h0, l0 := bits.Mul64(a0, b0)
	h1, l1 := bits.Mul64(a0, b1)
	h2, l2 := bits.Mul64(a0, b2)
	h3, l3 := bits.Mul64(a0, b3)
	t0 = l0
	t1, c = bits.Add64(l1, h0, 0)
	t2, c = bits.Add64(l2, h1, c)
	t3, c = bits.Add64(l3, h2, c)
	t4 = h3 + c

	h0, l0 = bits.Mul64(a1, b0)
	h1, l1 = bits.Mul64(a1, b1)
	h2, l2 = bits.Mul64(a1, b2)
	h3, l3 = bits.Mul64(a1, b3)
	r1, c := bits.Add64(l1, h0, 0)
	r2, c := bits.Add64(l2, h1, c)
	r3, c := bits.Add64(l3, h2, c)
	r4 := h3 + c
	t1, c = bits.Add64(t1, l0, 0)
	t2, c = bits.Add64(t2, r1, c)
	t3, c = bits.Add64(t3, r2, c)
	t4, c = bits.Add64(t4, r3, c)
	t5 = r4 + c

	h0, l0 = bits.Mul64(a2, b0)
	h1, l1 = bits.Mul64(a2, b1)
	h2, l2 = bits.Mul64(a2, b2)
	h3, l3 = bits.Mul64(a2, b3)
	r1, c = bits.Add64(l1, h0, 0)
	r2, c = bits.Add64(l2, h1, c)
	r3, c = bits.Add64(l3, h2, c)
	r4 = h3 + c
	t2, c = bits.Add64(t2, l0, 0)
	t3, c = bits.Add64(t3, r1, c)
	t4, c = bits.Add64(t4, r2, c)
	t5, c = bits.Add64(t5, r3, c)
	t6 = r4 + c

	h0, l0 = bits.Mul64(a3, b0)
	h1, l1 = bits.Mul64(a3, b1)
	h2, l2 = bits.Mul64(a3, b2)
	h3, l3 = bits.Mul64(a3, b3)
	r1, c = bits.Add64(l1, h0, 0)
	r2, c = bits.Add64(l2, h1, c)
	r3, c = bits.Add64(l3, h2, c)
	r4 = h3 + c
	t3, c = bits.Add64(t3, l0, 0)
	t4, c = bits.Add64(t4, r1, c)
	t5, c = bits.Add64(t5, r2, c)
	t6, c = bits.Add64(t6, r3, c)
	t7 = r4 + c
	return
}

// sqr512 returns a² as little-endian limbs with 10 limb products
// instead of 16: each cross product a_i·a_j (i < j) is computed once
// and doubled by a one-bit shift, then the four squares a_i² are
// added on the diagonal.
func sqr512(a *[4]uint64) (t0, t1, t2, t3, t4, t5, t6, t7 uint64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	var c uint64
	h01, l01 := bits.Mul64(a0, a1)
	h02, l02 := bits.Mul64(a0, a2)
	h03, l03 := bits.Mul64(a0, a3)
	t1 = l01
	t2, c = bits.Add64(l02, h01, 0)
	t3, c = bits.Add64(l03, h02, c)
	t4 = h03 + c
	h12, l12 := bits.Mul64(a1, a2)
	h13, l13 := bits.Mul64(a1, a3)
	r4, c := bits.Add64(l13, h12, 0)
	r5 := h13 + c
	t3, c = bits.Add64(t3, l12, 0)
	t4, c = bits.Add64(t4, r4, c)
	t5 = r5 + c
	h23, l23 := bits.Mul64(a2, a3)
	t5, c = bits.Add64(t5, l23, 0)
	t6 = h23 + c

	t7 = t6 >> 63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1

	h0, l0 := bits.Mul64(a0, a0)
	h1, l1 := bits.Mul64(a1, a1)
	h2, l2 := bits.Mul64(a2, a2)
	h3, l3 := bits.Mul64(a3, a3)
	t0 = l0
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, l1, c)
	t3, c = bits.Add64(t3, h1, c)
	t4, c = bits.Add64(t4, l2, c)
	t5, c = bits.Add64(t5, h2, c)
	t6, c = bits.Add64(t6, l3, c)
	t7, _ = bits.Add64(t7, h3, c)
	return
}

// reduce sets r to the 512-bit value t0..t7 mod p, folding the high
// half twice by pC and subtracting p at most once.
func (r *fieldElement) reduce(t0, t1, t2, t3, t4, t5, t6, t7 uint64) {
	// First fold: s = t0..t3 + pC·t4..t7. Each t_i·pC is below 2^97,
	// so its high limb is below 2^33 and the fifth limb s4 stays
	// below 2^34.
	h4, l4 := bits.Mul64(t4, pC)
	h5, l5 := bits.Mul64(t5, pC)
	h6, l6 := bits.Mul64(t6, pC)
	h7, l7 := bits.Mul64(t7, pC)
	s0, c := bits.Add64(t0, l4, 0)
	s1, c := bits.Add64(t1, l5, c)
	s2, c := bits.Add64(t2, l6, c)
	s3, c := bits.Add64(t3, l7, c)
	s4 := h7 + c
	s1, c = bits.Add64(s1, h4, 0)
	s2, c = bits.Add64(s2, h5, c)
	s3, c = bits.Add64(s3, h6, c)
	s4 += c

	// Second fold: s4·pC < 2^67.
	h, l := bits.Mul64(s4, pC)
	s0, c = bits.Add64(s0, l, 0)
	s1, c = bits.Add64(s1, h, c)
	s2, c = bits.Add64(s2, 0, c)
	s3, c = bits.Add64(s3, 0, c)
	// If that wrapped 2^256, the value left is below 2^67: s1 < 8
	// and s2 = s3 = 0, but s0 may sit just below 2^64, so the last
	// fold must carry into s1. It cannot carry further.
	s0, c = bits.Add64(s0, c*pC, 0)
	s1 += c

	r.n = [4]uint64{s0, s1, s2, s3}
	r.condSubP()
}

// onesChain returns a^(2^k − 1) for the three runs of ones that
// p − 2 and (p + 1)/4 are built from, k = 2, 22 and 223, using
// libsecp256k1's addition chain 1, 2, 3, 6, 9, 11, 22, 44, 88, 176,
// 220, 223.
func onesChain(a *fieldElement) (x2, x22, x223 fieldElement) {
	var x3, x6, x11, t fieldElement
	x2.sqr(a)
	x2.mul(&x2, a)
	x3.sqr(&x2)
	x3.mul(&x3, a)
	x6.sqrN(&x3, 3)
	x6.mul(&x6, &x3)
	t.sqrN(&x6, 3) // x9
	t.mul(&t, &x3)
	x11.sqrN(&t, 2)
	x11.mul(&x11, &x2)
	x22.sqrN(&x11, 11)
	x22.mul(&x22, &x11)
	var x44, x88 fieldElement
	x44.sqrN(&x22, 22)
	x44.mul(&x44, &x22)
	x88.sqrN(&x44, 44)
	x88.mul(&x88, &x44)
	t.sqrN(&x88, 88) // x176
	t.mul(&t, &x88)
	t.sqrN(&t, 44) // x220
	t.mul(&t, &x44)
	x223.sqrN(&t, 3)
	x223.mul(&x223, &x3)
	return
}

// inv sets r = a⁻¹ mod p via Fermat's little theorem, a^(p−2), with
// p − 2 = (2^223−1)·2^33 + (2^22−1)·2^10 + 2^5 + 3·2^2 + 1: 255
// squarings and 15 multiplications. inv(0) = 0.
func (r *fieldElement) inv(a *fieldElement) {
	x2, x22, x223 := onesChain(a)
	var t fieldElement
	t.sqrN(&x223, 23)
	t.mul(&t, &x22)
	t.sqrN(&t, 5)
	t.mul(&t, a)
	t.sqrN(&t, 3)
	t.mul(&t, &x2)
	t.sqrN(&t, 2)
	r.mul(&t, a)
}

// sqrt sets r to a square root of a and reports whether a is a
// quadratic residue. p ≡ 3 (mod 4), so the candidate is a^((p+1)/4),
// with (p+1)/4 = (2^223−1)·2^31 + (2^22−1)·2^8 + 3·2^2: 253
// squarings and 13 multiplications.
func (r *fieldElement) sqrt(a *fieldElement) bool {
	x2, x22, x223 := onesChain(a)
	var cand, check fieldElement
	cand.sqrN(&x223, 23)
	cand.mul(&cand, &x22)
	cand.sqrN(&cand, 6)
	cand.mul(&cand, &x2)
	cand.sqrN(&cand, 2)
	check.sqr(&cand)
	if !check.equal(a) {
		return false
	}
	*r = cand
	return true
}
