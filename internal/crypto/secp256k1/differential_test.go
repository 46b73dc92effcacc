package secp256k1

// Differential tests: every operation of the fixed-limb fast path is
// checked against independent arithmetic — math/big for field and
// scalar ops, the math/big oracleBackend (oracle_test.go) for point
// ops. The Fuzz*
// functions are `go test -fuzz`-compatible; under plain `go test`
// they run their seed corpus, which deliberately includes the
// boundary values 0, 1, p−1, p, N−1, N and all-ones.

import (
	"crypto/sha256"
	"math/big"
	"testing"
)

// fuzzSeeds are 32-byte big-endian boundary values every fuzz target
// seeds with (pairwise).
func fuzzSeeds() [][32]byte {
	mk := func(x *big.Int) (b [32]byte) {
		x.FillBytes(b[:])
		return
	}
	var ones [32]byte
	for i := range ones {
		ones[i] = 0xFF
	}
	return [][32]byte{
		mk(big.NewInt(0)),
		mk(big.NewInt(1)),
		mk(big.NewInt(2)),
		mk(new(big.Int).Sub(P, big.NewInt(1))),
		mk(P),
		mk(new(big.Int).Add(P, big.NewInt(1))),
		mk(new(big.Int).Sub(N, big.NewInt(1))),
		mk(N),
		mk(halfN),
		ones,
	}
}

func to32(b []byte) (out [32]byte) {
	copy(out[32-min32(len(b)):], b[:min32(len(b))])
	return
}

func min32(n int) int {
	if n > 32 {
		return 32
	}
	return n
}

// checkFieldPair cross-checks every field op on one input pair.
func checkFieldPair(t *testing.T, ab, bb [32]byte) {
	t.Helper()
	var fa, fb fieldElement
	fa.setBytes(&ab)
	fb.setBytes(&bb)
	ba := new(big.Int).Mod(new(big.Int).SetBytes(ab[:]), P)
	bbi := new(big.Int).Mod(new(big.Int).SetBytes(bb[:]), P)

	if fa.toBig().Cmp(ba) != 0 {
		t.Fatalf("setBytes: %x != %x", fa.toBig(), ba)
	}

	var r fieldElement
	r.add(&fa, &fb)
	want := new(big.Int).Mod(new(big.Int).Add(ba, bbi), P)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("add(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	r.sub(&fa, &fb)
	want = new(big.Int).Mod(new(big.Int).Sub(ba, bbi), P)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("sub(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	r.mul(&fa, &fb)
	want = new(big.Int).Mod(new(big.Int).Mul(ba, bbi), P)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("mul(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	r.sqr(&fa)
	want = new(big.Int).Mod(new(big.Int).Mul(ba, ba), P)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("sqr(%x) = %x, want %x", ba, r.toBig(), want)
	}
	var aa fieldElement
	aa.mul(&fa, &fa)
	if !r.equal(&aa) {
		t.Errorf("sqr(%x) = %x but mul(a, a) = %x", ba, r.toBig(), aa.toBig())
	}

	r.neg(&fa)
	want = new(big.Int).Mod(new(big.Int).Neg(ba), P)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("neg(%x) = %x, want %x", ba, r.toBig(), want)
	}

	for _, k := range []uint64{2, 3, 4, 8} {
		r.mulSmall(&fa, k)
		want = new(big.Int).Mod(new(big.Int).Mul(ba, new(big.Int).SetUint64(k)), P)
		if r.toBig().Cmp(want) != 0 {
			t.Errorf("mulSmall(%x, %d) = %x, want %x", ba, k, r.toBig(), want)
		}
	}

	if ba.Sign() != 0 {
		r.inv(&fa)
		want = new(big.Int).ModInverse(ba, P)
		if r.toBig().Cmp(want) != 0 {
			t.Errorf("inv(%x) = %x, want %x", ba, r.toBig(), want)
		}
	}

	// sqrt(a²) must return a root whose square is a².
	var sq, root fieldElement
	sq.sqr(&fa)
	if !root.sqrt(&sq) {
		t.Errorf("sqrt rejected the square of %x", ba)
	} else {
		var back fieldElement
		back.sqr(&root)
		if !back.equal(&sq) {
			t.Errorf("sqrt(%x)² = %x", sq.toBig(), back.toBig())
		}
	}
}

// checkScalarPair cross-checks every scalar op on one input pair.
func checkScalarPair(t *testing.T, ab, bb [32]byte) {
	t.Helper()
	var sa, sb scalar
	sa.setBytes(&ab)
	sb.setBytes(&bb)
	ba := new(big.Int).Mod(new(big.Int).SetBytes(ab[:]), N)
	bbi := new(big.Int).Mod(new(big.Int).SetBytes(bb[:]), N)

	if sa.toBig().Cmp(ba) != 0 {
		t.Fatalf("scalar setBytes: %x != %x", sa.toBig(), ba)
	}

	var r scalar
	r.add(&sa, &sb)
	want := new(big.Int).Mod(new(big.Int).Add(ba, bbi), N)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("scalar add(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	r.mul(&sa, &sb)
	want = new(big.Int).Mod(new(big.Int).Mul(ba, bbi), N)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("scalar mul(%x, %x) = %x, want %x", ba, bbi, r.toBig(), want)
	}

	r.neg(&sa)
	want = new(big.Int).Mod(new(big.Int).Neg(ba), N)
	if r.toBig().Cmp(want) != 0 {
		t.Errorf("scalar neg(%x) = %x, want %x", ba, r.toBig(), want)
	}

	if ba.Sign() != 0 {
		r.inverse(&sa)
		want = new(big.Int).ModInverse(ba, N)
		if r.toBig().Cmp(want) != 0 {
			t.Errorf("scalar inverse(%x) = %x, want %x", ba, r.toBig(), want)
		}
	}

	if got, want := sa.isHigh(), ba.Cmp(halfN) > 0; got != want {
		t.Errorf("isHigh(%x) = %v, want %v", ba, got, want)
	}
}

// checkPointPair cross-checks fast point arithmetic against the
// math/big oracle for one scalar pair.
func checkPointPair(t *testing.T, kb, mb [32]byte) {
	t.Helper()
	oracle := oracleBackend{}
	k := new(big.Int).Mod(new(big.Int).SetBytes(kb[:]), N)
	m := new(big.Int).Mod(new(big.Int).SetBytes(mb[:]), N)

	wantKG := oracle.scalarBaseMult(k)
	gotKG := ScalarBaseMult(k)
	if !gotKG.Equal(wantKG) {
		t.Fatalf("scalarBaseMult(%x) mismatch", k)
	}
	wantMG := oracle.scalarBaseMult(m)

	if !wantKG.IsInfinity() {
		got := ScalarMult(wantKG, m)
		want := oracle.scalarMult(wantKG, m)
		if !got.Equal(want) {
			t.Errorf("scalarMult(%x·G, %x) mismatch", k, m)
		}
	}

	got := Add(wantKG, wantMG)
	want := oracle.add(wantKG, wantMG)
	if !got.Equal(want) {
		t.Errorf("add(%x·G, %x·G) mismatch", k, m)
	}

	if !wantMG.IsInfinity() {
		got = doubleScalarBaseMult(k, wantMG, m)
		want = oracle.doubleScalarBaseMult(k, wantMG, m)
		if !got.Equal(want) {
			t.Errorf("doubleScalarBaseMult(%x, %x·G, %x) mismatch", k, m, m)
		}
	}
}

func TestFieldDifferentialEdgeAndRandom(t *testing.T) {
	seeds := fuzzSeeds()
	for _, a := range seeds {
		for _, b := range seeds {
			checkFieldPair(t, a, b)
		}
	}
	rng := testRand(1001)
	for i := 0; i < 200; i++ {
		var a, b [32]byte
		rng.Read(a[:])
		rng.Read(b[:])
		checkFieldPair(t, a, b)
	}
}

// TestFieldFoldCarryIntoSecondLimb pins products whose reduction
// wraps 2^256 twice and leaves the low limb near 2^64, so the last
// fold must carry into the second limb: (p−2^48)·(p−2^16) ≡ 2^64.
// Dropping that carry made inv(p−2^16) return 0. The committed
// FuzzFieldArithmetic corpus entry second-fold-carry is the same case.
func TestFieldFoldCarryIntoSecondLimb(t *testing.T) {
	pm := func(e uint) *big.Int { return new(big.Int).Sub(P, new(big.Int).Lsh(big.NewInt(1), e)) }
	var a, b, r fieldElement
	a.setBig(pm(48))
	b.setBig(pm(16))
	r.mul(&a, &b)
	if want := new(big.Int).Lsh(big.NewInt(1), 64); r.toBig().Cmp(want) != 0 {
		t.Errorf("mul(p−2^48, p−2^16) = %x, want %x", r.toBig(), want)
	}
	a.setBig(pm(32))
	r.sqr(&a)
	if want := new(big.Int).Lsh(big.NewInt(1), 64); r.toBig().Cmp(want) != 0 {
		t.Errorf("sqr(p−2^32) = %x, want %x", r.toBig(), want)
	}
	r.inv(&b)
	if want := new(big.Int).ModInverse(pm(16), P); r.toBig().Cmp(want) != 0 {
		t.Errorf("inv(p−2^16) = %x, want %x", r.toBig(), want)
	}
}

func TestScalarDifferentialEdgeAndRandom(t *testing.T) {
	seeds := fuzzSeeds()
	for _, a := range seeds {
		for _, b := range seeds {
			checkScalarPair(t, a, b)
		}
	}
	rng := testRand(1002)
	for i := 0; i < 200; i++ {
		var a, b [32]byte
		rng.Read(a[:])
		rng.Read(b[:])
		checkScalarPair(t, a, b)
	}
}

func TestPointDifferentialEdgeAndRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle point arithmetic is slow")
	}
	seeds := fuzzSeeds()
	// The oracle is ~1.5 ms per multiplication, so pair edges with a
	// fixed partner instead of the full cross product.
	partner := to32([]byte{0x42, 0x42, 0x42})
	for _, a := range seeds {
		checkPointPair(t, a, partner)
	}
	rng := testRand(1003)
	for i := 0; i < 8; i++ {
		var a, b [32]byte
		rng.Read(a[:])
		rng.Read(b[:])
		checkPointPair(t, a, b)
	}
}

// TestWNAFReconstruction rebuilds scalars from their wNAF digits and
// checks the digit shape the multiplication loops rely on.
func TestWNAFReconstruction(t *testing.T) {
	rng := testRand(1004)
	check := func(k *big.Int) {
		var s scalar
		s.setBig(k)
		var naf [wnafMax]int8
		n := s.wnaf(&naf, wnafWidth)
		sum := new(big.Int)
		for i := n - 1; i >= 0; i-- {
			sum.Lsh(sum, 1)
			sum.Add(sum, big.NewInt(int64(naf[i])))
		}
		if sum.Cmp(s.toBig()) != 0 {
			t.Fatalf("wNAF of %x reconstructs to %x", s.toBig(), sum)
		}
		if n > 0 && naf[n-1] == 0 {
			t.Fatalf("wNAF of %x: top digit %d is zero", s.toBig(), n-1)
		}
		last := -wnafWidth
		for i, d := range naf {
			if d == 0 {
				continue
			}
			// Non-adjacency: any w consecutive digits hold at most one
			// non-zero, odd digit below 2^(w−1) in magnitude.
			if i >= n || d%2 == 0 || d >= 1<<(wnafWidth-1) || d <= -1<<(wnafWidth-1) || i-last < wnafWidth {
				t.Fatalf("wNAF of %x: bad digit %d at %d (n %d, previous at %d)", s.toBig(), d, i, n, last)
			}
			last = i
		}
	}
	check(big.NewInt(0))
	check(big.NewInt(1))
	check(new(big.Int).Sub(N, big.NewInt(1)))
	for i := 0; i < 100; i++ {
		var b [32]byte
		rng.Read(b[:])
		check(new(big.Int).SetBytes(b[:]))
	}
}

// glvSeeds returns λ, N−λ and 2^128 as 32-byte big-endian values.
func glvSeeds() (lambda, minusLambda, two128 [32]byte) {
	l := scLambda.toBig()
	l.FillBytes(lambda[:])
	new(big.Int).Sub(N, l).FillBytes(minusLambda[:])
	new(big.Int).Lsh(big.NewInt(1), 128).FillBytes(two128[:])
	return lambda, minusLambda, two128
}

// TestGLVConstants checks the endomorphism constants derived at init:
// λ and β are non-trivial cube roots of unity mod N and p, λ·G is
// (β·Gx, Gy) on the oracle, and the values equal libsecp256k1's.
func TestGLVConstants(t *testing.T) {
	one := big.NewInt(1)
	cube := func(x, m *big.Int) *big.Int { return new(big.Int).Exp(x, big.NewInt(3), m) }
	lambda, beta := scLambda.toBig(), feBeta.toBig()
	if lambda.Cmp(one) == 0 || cube(lambda, N).Cmp(one) != 0 {
		t.Errorf("λ = %x is not a non-trivial cube root of unity mod N", lambda)
	}
	if beta.Cmp(one) == 0 || cube(beta, P).Cmp(one) != 0 {
		t.Errorf("β = %x is not a non-trivial cube root of unity mod p", beta)
	}
	lg := oracleBackend{}.scalarBaseMult(lambda)
	bx := new(big.Int).Mod(new(big.Int).Mul(beta, Gx), P)
	if lg.X.Cmp(bx) != 0 || lg.Y.Cmp(Gy) != 0 {
		t.Errorf("λ·G = (%x, %x), want (β·Gx, Gy) = (%x, %x)", lg.X, lg.Y, bx, Gy)
	}
	a1, b1, a2, b2 := glvBasis(N, lambda)
	for _, v := range [][2]*big.Int{{a1, b1}, {a2, b2}} {
		if r := new(big.Int).Mul(v[1], lambda); r.Add(r, v[0]).Mod(r, N).Sign() != 0 {
			t.Errorf("basis vector (%x, %x): a + b·λ ≢ 0 (mod N)", v[0], v[1])
		}
	}
	if det := new(big.Int).Sub(new(big.Int).Mul(a1, b2), new(big.Int).Mul(a2, b1)); det.Cmp(N) != 0 {
		t.Errorf("basis determinant %x, want N", det)
	}
	for i := range gOdd {
		want := oracleBackend{}.scalarMult(&Point{gOdd[i].x.toBig(), gOdd[i].y.toBig()}, lambda)
		if got := (&Point{gOddLambda[i].x.toBig(), gOddLambda[i].y.toBig()}); !got.Equal(want) {
			t.Errorf("gOddLambda[%d] != λ·gOdd[%d]", i, i)
		}
	}
	for _, c := range []struct {
		name string
		got  *big.Int
		want string
	}{
		{"λ", lambda, "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"},
		{"β", beta, "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee"},
		{"−b1", scMinusB1.toBig(), "e4437ed6010e88286f547fa90abfe4c3"},
		{"−b2", scMinusB2.toBig(), "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c"},
		{"g1", limbsToBig(&scG1), "3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031"},
		{"g2", limbsToBig(&scG2), "e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71"},
	} {
		if c.got.Text(16) != c.want {
			t.Errorf("%s = %x, want %s", c.name, c.got, c.want)
		}
	}
}

// TestSplitLambda checks the GLV split property k ≡ k1 + λ·k2 (mod N)
// with |k1|, |k2| < 2^129 on edge values and 1,000 seeded scalars.
func TestSplitLambda(t *testing.T) {
	lambda := scLambda.toBig()
	bound := new(big.Int).Lsh(big.NewInt(1), 129)
	check := func(k *big.Int) {
		var s scalar
		s.setBig(k)
		k1, k2, neg1, neg2 := s.splitLambda()
		signed := func(h *scalar, neg bool) *big.Int {
			v := h.toBig()
			if v.Cmp(bound) >= 0 {
				t.Errorf("split(%x): half %x is not below 2^129", k, v)
			}
			if neg {
				v.Neg(v)
			}
			return v
		}
		v1, v2 := signed(&k1, neg1), signed(&k2, neg2)
		sum := new(big.Int).Mul(v2, lambda)
		sum.Add(sum, v1)
		if sum.Sub(sum, k).Mod(sum, N).Sign() != 0 {
			t.Errorf("split(%x) = (%x, %x): k1 + λ·k2 ≢ k", k, v1, v2)
		}
	}
	halfNm1 := new(big.Int).Rsh(new(big.Int).Sub(N, big.NewInt(1)), 1)
	for _, k := range []*big.Int{
		big.NewInt(0), big.NewInt(1), lambda, new(big.Int).Sub(N, lambda),
		new(big.Int).Sub(N, big.NewInt(1)), halfNm1, new(big.Int).Lsh(big.NewInt(1), 128),
	} {
		check(k)
	}
	rng := testRand(1005)
	for i := 0; i < 1000; i++ {
		var b [32]byte
		rng.Read(b[:])
		check(new(big.Int).Mod(new(big.Int).SetBytes(b[:]), N))
	}
}

// TestSignDifferentialBackends checks each signature step against the
// math/big oracle. Signing: from the same RFC 6979 nonce k, the
// oracle's k·G must give the signature's r and recovery id.
// Verification and recovery: the oracle's u1·G + u2·Q must give back
// r and the signer's key, and Verify and RecoverPubkey must agree.
func TestSignDifferentialBackends(t *testing.T) {
	oracle := oracleBackend{}
	mulN := func(a, b *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Mul(a, b), N) }
	// These seeds cover folded and unfolded s with both parities.
	for seed := int64(77); seed < 87; seed++ {
		k := testKey(t, seed)
		hash := sha256.Sum256([]byte{byte(seed)})
		sig, err := Sign(k, hash[:])
		if err != nil {
			t.Fatal(err)
		}
		r, s := new(big.Int).SetBytes(sig[:32]), new(big.Int).SetBytes(sig[32:64])
		z := hashToInt(hash[:])

		// Sign: R = k·G gives r = R.x mod N and the recovery id.
		// s = k⁻¹(z + r·d) is folded to the low half, which negates R.
		// The first nonce yields a valid signature for these keys.
		nonce := rfc6979Nonce(k, hash[:], 0)
		R := oracle.scalarBaseMult(nonce)
		wantS := mulN(new(big.Int).Add(z, mulN(r, k.D)), new(big.Int).ModInverse(nonce, N))
		if wantS.Cmp(halfN) > 0 {
			wantS.Sub(N, wantS)
			R = &Point{R.X, new(big.Int).Sub(P, R.Y)}
		}
		wantV := byte(R.Y.Bit(0))
		if R.X.Cmp(N) >= 0 {
			wantV |= 2
		}
		if new(big.Int).Mod(R.X, N).Cmp(r) != 0 || s.Cmp(wantS) != 0 || sig[64] != wantV {
			t.Fatalf("seed %d: sig %x, oracle gives R.x %x, s %x, v %d", seed, sig, R.X, wantS, wantV)
		}

		// Verify: (z·s⁻¹·G + r·s⁻¹·Q).x mod N = r.
		w := new(big.Int).ModInverse(s, N)
		x := oracle.doubleScalarBaseMult(mulN(z, w), &k.Pub.Point, mulN(r, w)).X
		if new(big.Int).Mod(x, N).Cmp(r) != 0 || !Verify(&k.Pub, hash[:], sig) {
			t.Fatalf("seed %d: oracle u1·G + u2·Q gives x %x for r %x; Verify = %v",
				seed, x, r, Verify(&k.Pub, hash[:], sig))
		}

		// Recover: −z·r⁻¹·G + s·r⁻¹·R = Q.
		rinv := new(big.Int).ModInverse(r, N)
		q := oracle.doubleScalarBaseMult(mulN(new(big.Int).Neg(z), rinv), R, mulN(s, rinv))
		rec, err := RecoverPubkey(hash[:], sig)
		if !q.Equal(&k.Pub.Point) || err != nil || !rec.Equal(q) {
			t.Fatalf("seed %d: oracle u1·G + u2·R = %v, RecoverPubkey = %v, %v; want the signer's key",
				seed, q, rec, err)
		}
	}
}

func FuzzFieldArithmetic(f *testing.F) {
	seeds := fuzzSeeds()
	for i := range seeds {
		f.Add(seeds[i][:], seeds[(i+1)%len(seeds)][:])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkFieldPair(t, to32(a), to32(b))
	})
}

func FuzzScalarArithmetic(f *testing.F) {
	seeds := fuzzSeeds()
	for i := range seeds {
		f.Add(seeds[i][:], seeds[(i+1)%len(seeds)][:])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkScalarPair(t, to32(a), to32(b))
	})
}

func FuzzPointArithmetic(f *testing.F) {
	// Few seeds: each case runs four oracle multiplications at
	// ~1.5 ms apiece.
	f.Add([]byte{0x01}, []byte{0x02})
	f.Add(fuzzSeeds()[6][:], fuzzSeeds()[9][:]) // N−1, all-ones
	// λ, N−λ and 2^128, each once as k and once as m: the GLV halves
	// are (0, 1), (0, −1) and a sign change at the 2^128 boundary.
	lambda, minusLambda, two128 := glvSeeds()
	f.Add(lambda[:], minusLambda[:])
	f.Add(minusLambda[:], two128[:])
	f.Add(two128[:], lambda[:])
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkPointPair(t, to32(a), to32(b))
	})
}
