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

// TestWNAFReconstruction rebuilds scalars from their wNAF digits.
func TestWNAFReconstruction(t *testing.T) {
	rng := testRand(1004)
	check := func(k *big.Int) {
		var s scalar
		s.setBig(k)
		naf := s.wnaf(wnafWidth)
		sum := new(big.Int)
		for i := len(naf) - 1; i >= 0; i-- {
			sum.Lsh(sum, 1)
			sum.Add(sum, big.NewInt(int64(naf[i])))
		}
		if sum.Cmp(s.toBig()) != 0 {
			t.Fatalf("wNAF of %x reconstructs to %x", s.toBig(), sum)
		}
		// Non-adjacency: no two consecutive non-zero digits.
		for i := 1; i < len(naf); i++ {
			if naf[i] != 0 && naf[i-1] != 0 {
				t.Fatalf("adjacent non-zero wNAF digits for %x", s.toBig())
			}
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
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkPointPair(t, to32(a), to32(b))
	})
}
