package secp256k1

import (
	"errors"
	"fmt"
	"math/big"
)

// SignatureLength is the byte length of a recoverable signature:
// 32-byte R, 32-byte S, 1-byte recovery id.
const SignatureLength = 65

// Sign produces a recoverable ECDSA signature of a 32-byte message
// hash. The result is r || s || v where v ∈ {0, 1} identifies which
// of the two candidate public keys is the signer's — the format RLPx
// discovery packets carry. S is canonicalized to the lower half of
// the group order so signatures are unique.
func Sign(priv *PrivateKey, hash []byte) ([]byte, error) {
	if len(hash) != 32 {
		return nil, fmt.Errorf("secp256k1: hash must be 32 bytes, got %d", len(hash))
	}
	var z, d scalar
	z.setBig(hashToInt(hash))
	d.setBig(priv.D)
	for attempt := 0; attempt < 100; attempt++ {
		k := rfc6979Nonce(priv, hash, attempt)
		rp := scalarBaseMult(k)
		var r scalar
		r.setBig(rp.X) // rp.X < p < 2N, so this is rp.X mod N
		if r.isZero() {
			continue
		}
		// s = k⁻¹ (z + r·d) mod N
		var ks, kinv, s scalar
		ks.setBig(k)
		kinv.inverse(&ks)
		s.mul(&r, &d)
		s.add(&s, &z)
		s.mul(&s, &kinv)
		if s.isZero() {
			continue
		}
		// Recovery id: bit 0 is the parity of R.y, bit 1 set if
		// R.x >= N (astronomically rare).
		v := byte(rp.Y.Bit(0))
		if rp.X.Cmp(N) >= 0 {
			v |= 2
		}
		// Enforce low-S; flipping s negates the parity bit.
		if s.isHigh() {
			s.neg(&s)
			v ^= 1
		}
		sig := make([]byte, SignatureLength)
		r.putBytes(sig[:32])
		s.putBytes(sig[32:64])
		sig[64] = v
		return sig, nil
	}
	return nil, errors.New("secp256k1: could not produce signature")
}

// Verify checks a 64- or 65-byte signature (recovery id ignored)
// against a 32-byte hash and public key. The two scalar products are
// computed in a single Shamir pass: u1·G + u2·Q.
func Verify(pub *PublicKey, hash, sig []byte) bool {
	if len(hash) != 32 || (len(sig) != 64 && len(sig) != 65) {
		return false
	}
	r := new(big.Int).SetBytes(sig[:32])
	s := new(big.Int).SetBytes(sig[32:64])
	if r.Sign() <= 0 || s.Sign() <= 0 || r.Cmp(N) >= 0 || s.Cmp(N) >= 0 {
		return false
	}
	var z, rs, ss, w, u1, u2 scalar
	z.setBig(hashToInt(hash))
	rs.setBig(r)
	ss.setBig(s)
	w.inverse(&ss)
	u1.mul(&z, &w)
	u2.mul(&rs, &w)
	p := doubleScalarBaseMult(u1.toBig(), &pub.Point, u2.toBig())
	if p.IsInfinity() {
		return false
	}
	return new(big.Int).Mod(p.X, N).Cmp(r) == 0
}

// RecoverPubkey returns the public key that produced the given
// recoverable signature over hash. sig is r || s || v. The recovery
// equation Q = r⁻¹(s·R − z·G) is evaluated as one Shamir pass over
// (−z·r⁻¹)·G + (s·r⁻¹)·R.
func RecoverPubkey(hash, sig []byte) (*PublicKey, error) {
	if len(hash) != 32 {
		return nil, fmt.Errorf("secp256k1: hash must be 32 bytes, got %d", len(hash))
	}
	if len(sig) != SignatureLength {
		return nil, fmt.Errorf("secp256k1: signature must be %d bytes, got %d", SignatureLength, len(sig))
	}
	r := new(big.Int).SetBytes(sig[:32])
	s := new(big.Int).SetBytes(sig[32:64])
	v := sig[64]
	if v > 3 {
		return nil, fmt.Errorf("secp256k1: invalid recovery id %d", v)
	}
	if r.Sign() <= 0 || s.Sign() <= 0 || r.Cmp(N) >= 0 || s.Cmp(N) >= 0 {
		return nil, errors.New("secp256k1: signature values out of range")
	}

	// R.x = r (+ N if bit 1 of v set); recover R.y from the curve
	// equation using the parity in bit 0.
	x := new(big.Int).Set(r)
	if v&2 != 0 {
		x.Add(x, N)
	}
	if x.Cmp(P) >= 0 {
		return nil, errors.New("secp256k1: recovery x out of field range")
	}
	y, err := liftX(x, v&1 == 1)
	if err != nil {
		return nil, err
	}
	rp := &Point{x, y}

	// Q = r⁻¹ (s·R − z·G) = (−z·r⁻¹)·G + (s·r⁻¹)·R
	var z, rs, ss, rinv, u1, u2 scalar
	z.setBig(hashToInt(hash))
	rs.setBig(r)
	ss.setBig(s)
	rinv.inverse(&rs)
	u1.mul(&z, &rinv)
	u1.neg(&u1)
	u2.mul(&ss, &rinv)
	q := doubleScalarBaseMult(u1.toBig(), rp, u2.toBig())
	if q.IsInfinity() {
		return nil, errors.New("secp256k1: recovered point at infinity")
	}
	pub := &PublicKey{*q}
	if !pub.OnCurve() {
		return nil, errors.New("secp256k1: recovered point not on curve")
	}
	return pub, nil
}

// liftX computes a curve point's y coordinate from x, choosing the
// root with the requested parity. The square root runs on the
// fixed-limb field (p ≡ 3 mod 4, so y = (x³+7)^((p+1)/4)).
func liftX(x *big.Int, odd bool) (*big.Int, error) {
	var xf, y2, y fieldElement
	xf.setBig(x)
	y2.sqr(&xf)
	y2.mul(&y2, &xf)
	y2.add(&y2, &feB)
	if !y.sqrt(&y2) {
		return nil, errors.New("secp256k1: x is not on the curve")
	}
	if y.isOdd() != odd {
		y.neg(&y)
	}
	return y.toBig(), nil
}
