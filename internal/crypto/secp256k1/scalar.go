package secp256k1

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// scalar is an integer modulo the group order N, stored as four
// little-endian uint64 limbs in plain (non-Montgomery) form and kept
// fully reduced. Multiplication round-trips through Montgomery form
// internally; N is not close enough to 2^256 for the field's cheap
// folding reduction.
type scalar struct {
	n [4]uint64
}

var (
	scN = scalar{n: [4]uint64{
		0xBFD25E8CD0364141, 0xBAAEDCE6AF48A03B, 0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF,
	}}
	scOne = scalar{n: [4]uint64{1, 0, 0, 0}}

	// Montgomery machinery, derived from the big.Int N in
	// initScalarConstants: R² mod N (for entering Montgomery form),
	// R mod N (the Montgomery one), −N⁻¹ mod 2^64, plus the plain
	// constants N−2 (Fermat inversion exponent) and (N−1)/2 (low-S
	// threshold).
	scRR      scalar
	scRmodN   scalar
	scNPrime  uint64
	scNMinus2 [4]uint64
	scHalfN   scalar

	// GLV endomorphism constants, derived from N in
	// initScalarConstants: λ, a non-trivial cube root of unity mod N;
	// −b1 and −b2 mod N from the reduced lattice basis (a1, b1),
	// (a2, b2) of {(x, y) : x + y·λ ≡ 0 mod N}; and the Babai rounding
	// multipliers g1 = round(2^384·b2/N), g2 = round(2^384·(−b1)/N).
	scLambda  scalar
	scMinusB1 scalar
	scMinusB2 scalar
	scG1      [4]uint64
	scG2      [4]uint64
)

func initScalarConstants() {
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	scRmodN.n = limbsFromBig(new(big.Int).Mod(r, N))
	scRR.n = limbsFromBig(new(big.Int).Mod(new(big.Int).Mul(r, r), N))
	scNMinus2 = limbsFromBig(new(big.Int).Sub(N, big.NewInt(2)))
	scHalfN.n = limbsFromBig(halfN)

	// −N⁻¹ mod 2^64 by Newton iteration: each step doubles the number
	// of correct low bits of the inverse.
	inv := scN.n[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - scN.n[0]*inv
	}
	scNPrime = -inv

	// λ is the smaller of the two non-trivial cube roots; the field
	// side picks the β that matches it (initEndomorphism).
	lambda, _ := cubeRootsOfUnity(N)
	scLambda.setBig(lambda)
	_, b1, _, b2 := glvBasis(N, lambda)
	if b1.Sign() >= 0 || b2.Sign() <= 0 {
		panic("secp256k1: unexpected GLV basis signs")
	}
	negB1 := new(big.Int).Neg(b1)
	scMinusB1.setBig(negB1)
	scMinusB2.setBig(new(big.Int).Sub(N, b2))
	round384 := func(x *big.Int) [4]uint64 {
		q := new(big.Int).Lsh(x, 384)
		q.Add(q, halfN)
		return limbsFromBig(q.Div(q, N))
	}
	scG1 = round384(b2)
	scG2 = round384(negB1)
}

// cubeRootsOfUnity returns the two non-trivial cube roots of one
// modulo a prime m ≡ 1 (mod 3), smaller first: g^((m−1)/3) for the
// first g that is not a cube, and its square.
func cubeRootsOfUnity(m *big.Int) (*big.Int, *big.Int) {
	e := new(big.Int).Sub(m, big.NewInt(1))
	e.Div(e, big.NewInt(3))
	for g := int64(2); ; g++ {
		r := new(big.Int).Exp(big.NewInt(g), e, m)
		if r.Cmp(big.NewInt(1)) == 0 {
			continue
		}
		r2 := new(big.Int).Mul(r, r)
		r2.Mod(r2, m)
		if r.Cmp(r2) > 0 {
			r, r2 = r2, r
		}
		return r, r2
	}
}

// glvBasis returns two short vectors (a1, b1), (a2, b2) with
// a + b·λ ≡ 0 (mod n), from the extended Euclidean algorithm on
// (n, λ) (Gallant–Lambert–Vanstone; Guide to ECC, Algorithm 3.74).
// Every remainder satisfies r ≡ t·λ, so (r, −t) is in the lattice:
// the first vector comes from the first remainder below √n, the
// second is the shorter of its two neighbours.
func glvBasis(n, lambda *big.Int) (a1, b1, a2, b2 *big.Int) {
	type pair struct{ r, t *big.Int }
	seq := []pair{{new(big.Int).Set(n), big.NewInt(0)}, {new(big.Int).Set(lambda), big.NewInt(1)}}
	for seq[len(seq)-1].r.Sign() != 0 {
		p, c := seq[len(seq)-2], seq[len(seq)-1]
		q := new(big.Int).Div(p.r, c.r)
		seq = append(seq, pair{
			new(big.Int).Sub(p.r, new(big.Int).Mul(q, c.r)),
			new(big.Int).Sub(p.t, new(big.Int).Mul(q, c.t)),
		})
	}
	sqrtN := new(big.Int).Sqrt(n)
	l := 0
	for i, p := range seq {
		if p.r.Cmp(sqrtN) >= 0 {
			l = i
		}
	}
	vec := func(p pair) (a, b *big.Int) { return p.r, new(big.Int).Neg(p.t) }
	norm := func(p pair) *big.Int {
		return new(big.Int).Add(new(big.Int).Mul(p.r, p.r), new(big.Int).Mul(p.t, p.t))
	}
	a1, b1 = vec(seq[l+1])
	if norm(seq[l]).Cmp(norm(seq[l+2])) <= 0 {
		a2, b2 = vec(seq[l])
	} else {
		a2, b2 = vec(seq[l+2])
	}
	return a1, b1, a2, b2
}

// setBytes loads a 32-byte big-endian value, reducing mod N. One
// conditional subtraction suffices because 2^256 < 2N.
func (r *scalar) setBytes(b *[32]byte) {
	for i := 0; i < 4; i++ {
		r.n[i] = binary.BigEndian.Uint64(b[(3-i)*8:])
	}
	r.condSubN()
}

// setBig loads a big.Int in [0, 2^256), reducing mod N.
func (r *scalar) setBig(x *big.Int) {
	r.n = limbsFromBig(x)
	r.condSubN()
}

func (r *scalar) toBig() *big.Int { return limbsToBig(&r.n) }

// putBytes writes the canonical 32-byte big-endian form into b.
func (r *scalar) putBytes(b []byte) {
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(b[(3-i)*8:], r.n[i])
	}
}

func (r *scalar) isZero() bool { return r.n[0]|r.n[1]|r.n[2]|r.n[3] == 0 }

func (r *scalar) equal(a *scalar) bool { return r.n == a.n }

// isHigh reports s > (N−1)/2, the non-canonical half for low-S.
func (r *scalar) isHigh() bool { return r.cmp(&scHalfN) > 0 }

func (r *scalar) cmp(a *scalar) int {
	for i := 3; i >= 0; i-- {
		if r.n[i] > a.n[i] {
			return 1
		}
		if r.n[i] < a.n[i] {
			return -1
		}
	}
	return 0
}

func (r *scalar) gteN() bool { return r.cmp(&scN) >= 0 }

func (r *scalar) condSubN() {
	if !r.gteN() {
		return
	}
	var br uint64
	r.n[0], br = bits.Sub64(r.n[0], scN.n[0], 0)
	r.n[1], br = bits.Sub64(r.n[1], scN.n[1], br)
	r.n[2], br = bits.Sub64(r.n[2], scN.n[2], br)
	r.n[3], _ = bits.Sub64(r.n[3], scN.n[3], br)
}

// add sets r = a + b mod N. Result aliasing is allowed.
func (r *scalar) add(a, b *scalar) {
	var c uint64
	r.n[0], c = bits.Add64(a.n[0], b.n[0], 0)
	r.n[1], c = bits.Add64(a.n[1], b.n[1], c)
	r.n[2], c = bits.Add64(a.n[2], b.n[2], c)
	r.n[3], c = bits.Add64(a.n[3], b.n[3], c)
	if c != 0 || r.gteN() {
		// With canonical inputs a+b < 2N, so one subtraction is
		// enough; a 2^256 carry cancels against the borrow.
		var br uint64
		r.n[0], br = bits.Sub64(r.n[0], scN.n[0], 0)
		r.n[1], br = bits.Sub64(r.n[1], scN.n[1], br)
		r.n[2], br = bits.Sub64(r.n[2], scN.n[2], br)
		r.n[3], _ = bits.Sub64(r.n[3], scN.n[3], br)
	}
}

// neg sets r = −a mod N.
func (r *scalar) neg(a *scalar) {
	if a.isZero() {
		*r = scalar{}
		return
	}
	var br uint64
	r.n[0], br = bits.Sub64(scN.n[0], a.n[0], 0)
	r.n[1], br = bits.Sub64(scN.n[1], a.n[1], br)
	r.n[2], br = bits.Sub64(scN.n[2], a.n[2], br)
	r.n[3], _ = bits.Sub64(scN.n[3], a.n[3], br)
}

// montMul sets r = a · b · R⁻¹ mod N (CIOS Montgomery multiplication,
// R = 2^256). Result aliasing is allowed.
func montMul(r, a, b *scalar) {
	var t [4]uint64
	var tExtra, tHi uint64 // limbs 4 and 5 of the accumulator
	for i := 0; i < 4; i++ {
		// t += a[i] * b
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(a.n[i], b.n[j])
			v, c1 := bits.Add64(t[j], lo, 0)
			v, c2 := bits.Add64(v, carry, 0)
			t[j] = v
			carry = hi + c1 + c2
		}
		var c uint64
		tExtra, c = bits.Add64(tExtra, carry, 0)
		tHi += c

		// t = (t + m·N) / 2^64 with m chosen to zero the low limb.
		m := t[0] * scNPrime
		hi, lo := bits.Mul64(m, scN.n[0])
		_, c1 := bits.Add64(t[0], lo, 0)
		carry = hi + c1
		for j := 1; j < 4; j++ {
			hi, lo = bits.Mul64(m, scN.n[j])
			v, c2 := bits.Add64(t[j], lo, 0)
			v, c3 := bits.Add64(v, carry, 0)
			t[j-1] = v
			carry = hi + c2 + c3
		}
		var c4 uint64
		t[3], c4 = bits.Add64(tExtra, carry, 0)
		tExtra = tHi + c4
		tHi = 0
	}
	r.n = t
	if tExtra != 0 || r.gteN() {
		// The CIOS invariant keeps the result below 2N, so a single
		// subtraction restores canonical form (tExtra absorbs the
		// borrow when set).
		var br uint64
		r.n[0], br = bits.Sub64(r.n[0], scN.n[0], 0)
		r.n[1], br = bits.Sub64(r.n[1], scN.n[1], br)
		r.n[2], br = bits.Sub64(r.n[2], scN.n[2], br)
		r.n[3], _ = bits.Sub64(r.n[3], scN.n[3], br)
	}
}

// mul sets r = a · b mod N for plain-form scalars.
func (r *scalar) mul(a, b *scalar) {
	var aR scalar
	montMul(&aR, a, &scRR) // aR = a·R
	montMul(r, &aR, b)     // aR·b·R⁻¹ = a·b
}

// inverse sets r = a⁻¹ mod N via Fermat (a^(N−2)) with a 4-bit window
// over Montgomery form; inverse(0) = 0.
func (r *scalar) inverse(a *scalar) {
	var aR scalar
	montMul(&aR, a, &scRR)
	var table [16]scalar
	table[0] = scRmodN // Montgomery one
	table[1] = aR
	for i := 2; i < 16; i++ {
		montMul(&table[i], &table[i-1], &aR)
	}
	acc := scRmodN
	started := false
	for i := 3; i >= 0; i-- {
		for shift := 60; shift >= 0; shift -= 4 {
			if started {
				montMul(&acc, &acc, &acc)
				montMul(&acc, &acc, &acc)
				montMul(&acc, &acc, &acc)
				montMul(&acc, &acc, &acc)
			}
			nib := (scNMinus2[i] >> uint(shift)) & 15
			if nib != 0 {
				montMul(&acc, &acc, &table[nib])
				started = true
			}
		}
	}
	montMul(r, &acc, &scOne) // leave Montgomery form
}

// splitLambda writes k ≡ k1 + λ·k2 (mod N) with |k1|, |k2| < 2^129,
// returning the magnitudes and whether each half is negative. It is
// libsecp256k1's split: Babai rounding c1 = round(k·g1/2^384),
// c2 = round(k·g2/2^384), then k2 = c1·(−b1) + c2·(−b2) and
// k1 = k − λ·k2, all mod N; a half above N/2 stands for its negation.
func (k *scalar) splitLambda() (k1, k2 scalar, neg1, neg2 bool) {
	c1 := mulShift384(&k.n, &scG1)
	c2 := mulShift384(&k.n, &scG2)
	c1.mul(&c1, &scMinusB1)
	c2.mul(&c2, &scMinusB2)
	k2.add(&c1, &c2)
	k1.mul(&k2, &scLambda)
	k1.neg(&k1)
	k1.add(&k1, k)
	if neg1 = k1.isHigh(); neg1 {
		k1.neg(&k1)
	}
	if neg2 = k2.isHigh(); neg2 {
		k2.neg(&k2)
	}
	return k1, k2, neg1, neg2
}

// mulShift384 returns round(a·b / 2^384) for a < N and b < 2^256:
// the top two limbs of the 512-bit product plus bit 383. The result
// is below 2^128 + 1 and so a canonical scalar.
func mulShift384(a, b *[4]uint64) scalar {
	_, _, _, _, _, t5, t6, t7 := mul512(a, b)
	lo, c := bits.Add64(t6, t5>>63, 0)
	return scalar{n: [4]uint64{lo, t7 + c, 0, 0}}
}

// wnafWidth is the window width used for variable-base and dual
// multiplication: odd digits in ±{1..15}, eight precomputed points.
const wnafWidth = 5

// wnafMax is the most digits wnaf produces: one per bit of a 256-bit
// scalar plus a final carry digit.
const wnafMax = 257

// wnaf writes the width-w non-adjacent form of s into out, least
// significant digit first, and returns the number of digits up to
// and including the most significant non-zero one (0 for s = 0).
// Digits past that are zero. Every non-zero digit is odd with
// |d| < 2^(w−1), and any w consecutive digits hold at most one.
func (s *scalar) wnaf(out *[wnafMax]int8, w uint) int {
	*out = [wnafMax]int8{}
	n, bitLen := 0, s.bitLen()
	var carry uint64
	for bit := 0; bit < bitLen || carry != 0; {
		if s.window(bit, 1) == carry {
			bit++ // the next bit of s plus carry is even: a zero digit
			continue
		}
		word := s.window(bit, w) + carry
		carry = word >> (w - 1) & 1
		out[bit] = int8(int64(word) - int64(carry<<w))
		n = bit + 1
		bit += int(w)
	}
	return n
}

// bitLen returns the length of s in bits.
func (s *scalar) bitLen() int {
	for i := 3; i >= 0; i-- {
		if s.n[i] != 0 {
			return i*64 + bits.Len64(s.n[i])
		}
	}
	return 0
}

// window returns the w ≤ 64 bits of s starting at bit pos; bits past
// 255 read as zero.
func (s *scalar) window(pos int, w uint) uint64 {
	i, sh := pos>>6, uint(pos&63)
	if i >= 4 {
		return 0
	}
	v := s.n[i] >> sh
	if sh+w > 64 && i < 3 {
		v |= s.n[i+1] << (64 - sh)
	}
	return v & (1<<w - 1)
}
