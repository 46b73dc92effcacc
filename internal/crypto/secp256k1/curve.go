// Package secp256k1 implements the secp256k1 elliptic curve and the
// ECDSA operations Ethereum's network stack depends on: key
// generation, deterministic signing (RFC 6979), verification, public
// key recovery from signatures, and ECDH shared-secret computation.
//
// Ethereum node IDs are secp256k1 public keys; RLPx discovery packets
// are ECDSA-signed with recoverable signatures; and the RLPx transport
// handshake derives its symmetric keys from secp256k1 ECDH. Point
// arithmetic runs on a dedicated fixed-limb field implementation
// (field.go, scalar.go) with precomputed base-point tables and
// GLV-split wNAF/Straus multi-scalar multiplication (table.go). The original
// math/big implementation lives on in oracle_test.go as the
// differential-test reference. The arithmetic is not constant-time
// and must not be used to protect real funds; this package exists to
// drive a protocol measurement stack.
package secp256k1

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Curve parameters (SEC 2: y² = x³ + 7 over F_p).
var (
	// P is the field prime 2^256 - 2^32 - 977.
	P, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f", 16)
	// N is the order of the base point G.
	N, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)
	// B is the constant term of the curve equation.
	B = big.NewInt(7)
	// Gx, Gy are the base point coordinates.
	Gx, _ = new(big.Int).SetString("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798", 16)
	Gy, _ = new(big.Int).SetString("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8", 16)

	halfN = new(big.Int).Rsh(N, 1)
)

// Point is an affine point on the curve. The zero value is the point
// at infinity.
type Point struct {
	X, Y *big.Int
}

// IsInfinity reports whether p is the point at infinity.
func (p *Point) IsInfinity() bool { return p.X == nil || p.Y == nil }

// Equal reports whether two points are the same affine point.
func (p *Point) Equal(q *Point) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() == q.IsInfinity()
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// OnCurve reports whether p satisfies y² = x³ + 7 (mod P).
func (p *Point) OnCurve() bool {
	if p.IsInfinity() {
		return false
	}
	if p.X.Sign() < 0 || p.X.Cmp(P) >= 0 || p.Y.Sign() < 0 || p.Y.Cmp(P) >= 0 {
		return false
	}
	y2 := new(big.Int).Mul(p.Y, p.Y)
	y2.Mod(y2, P)
	x3 := new(big.Int).Mul(p.X, p.X)
	x3.Mul(x3, p.X)
	x3.Add(x3, B)
	x3.Mod(x3, P)
	return y2.Cmp(x3) == 0
}

// ScalarMult returns k*p for a point p and scalar k.
func ScalarMult(p *Point, k *big.Int) *Point {
	k = new(big.Int).Mod(k, N)
	if k.Sign() == 0 || p.IsInfinity() {
		return &Point{}
	}
	var s scalar
	s.setBig(k)
	pj := pointToJac(p)
	j := scalarMultJac(&pj, &s)
	return jacToPoint(&j)
}

// ScalarBaseMult returns k*G.
func ScalarBaseMult(k *big.Int) *Point {
	k = new(big.Int).Mod(k, N)
	if k.Sign() == 0 {
		return &Point{}
	}
	return scalarBaseMult(k)
}

// Add returns p + q in affine coordinates.
func Add(p, q *Point) *Point {
	pj, qj := pointToJac(p), pointToJac(q)
	var r jacPoint
	r.add(&pj, &qj)
	return jacToPoint(&r)
}

// Neg returns -p.
func Neg(p *Point) *Point {
	if p.IsInfinity() {
		return &Point{}
	}
	return &Point{new(big.Int).Set(p.X), new(big.Int).Sub(P, p.Y)}
}

// PrivateKey is a secp256k1 private key with its public point.
type PrivateKey struct {
	D   *big.Int
	Pub PublicKey
}

// PublicKey is a point on the curve.
type PublicKey struct {
	Point
}

// GenerateKey creates a private key using entropy from rand.
func GenerateKey(rand io.Reader) (*PrivateKey, error) {
	buf := make([]byte, 32)
	for {
		if _, err := io.ReadFull(rand, buf); err != nil {
			return nil, fmt.Errorf("secp256k1: reading entropy: %w", err)
		}
		d := new(big.Int).SetBytes(buf)
		if d.Sign() > 0 && d.Cmp(N) < 0 {
			return PrivateKeyFromScalar(d)
		}
	}
}

// PrivateKeyFromScalar builds a key pair from a scalar in [1, N-1].
func PrivateKeyFromScalar(d *big.Int) (*PrivateKey, error) {
	if d.Sign() <= 0 || d.Cmp(N) >= 0 {
		return nil, errors.New("secp256k1: scalar out of range")
	}
	pub := ScalarBaseMult(d)
	return &PrivateKey{D: new(big.Int).Set(d), Pub: PublicKey{*pub}}, nil
}

// PrivateKeyFromBytes parses a 32-byte big-endian scalar.
func PrivateKeyFromBytes(b []byte) (*PrivateKey, error) {
	if len(b) != 32 {
		return nil, fmt.Errorf("secp256k1: private key must be 32 bytes, got %d", len(b))
	}
	return PrivateKeyFromScalar(new(big.Int).SetBytes(b))
}

// Bytes returns the 32-byte big-endian scalar.
func (k *PrivateKey) Bytes() []byte {
	out := make([]byte, 32)
	k.D.FillBytes(out)
	return out
}

// SerializeUncompressed returns the 65-byte 0x04-prefixed encoding.
func (p *PublicKey) SerializeUncompressed() []byte {
	out := make([]byte, 65)
	out[0] = 0x04
	p.X.FillBytes(out[1:33])
	p.Y.FillBytes(out[33:65])
	return out
}

// SerializeRaw returns the 64-byte X||Y encoding used for Ethereum
// node IDs (no prefix byte).
func (p *PublicKey) SerializeRaw() []byte {
	out := make([]byte, 64)
	p.X.FillBytes(out[:32])
	p.Y.FillBytes(out[32:])
	return out
}

// ParsePublicKey accepts 65-byte (0x04-prefixed) or 64-byte raw
// encodings and validates that the point is on the curve.
func ParsePublicKey(b []byte) (*PublicKey, error) {
	switch len(b) {
	case 65:
		if b[0] != 0x04 {
			return nil, fmt.Errorf("secp256k1: unsupported public key prefix 0x%02x", b[0])
		}
		b = b[1:]
	case 64:
	default:
		return nil, fmt.Errorf("secp256k1: invalid public key length %d", len(b))
	}
	p := &PublicKey{Point{
		X: new(big.Int).SetBytes(b[:32]),
		Y: new(big.Int).SetBytes(b[32:]),
	}}
	if !p.OnCurve() {
		return nil, errors.New("secp256k1: point not on curve")
	}
	return p, nil
}

// SharedSecret computes the ECDH shared secret: the X coordinate of
// d*Q, as a 32-byte value. This is the agreement used by RLPx/ECIES.
func SharedSecret(priv *PrivateKey, pub *PublicKey) ([]byte, error) {
	if pub == nil || pub.IsInfinity() {
		return nil, errors.New("secp256k1: nil public key")
	}
	p := ScalarMult(&pub.Point, priv.D)
	if p.IsInfinity() {
		return nil, errors.New("secp256k1: ECDH produced point at infinity")
	}
	out := make([]byte, 32)
	p.X.FillBytes(out)
	return out, nil
}

// hmacDRBG implements the RFC 6979 deterministic nonce generator over
// HMAC-SHA256.
func rfc6979Nonce(priv *PrivateKey, hash []byte, attempt int) *big.Int {
	x := priv.Bytes()
	h := bits2octets(hash)

	v := make([]byte, 32)
	k := make([]byte, 32)
	for i := range v {
		v[i] = 0x01
	}
	mac := func(key []byte, parts ...[]byte) []byte {
		m := hmac.New(sha256.New, key)
		for _, p := range parts {
			m.Write(p)
		}
		return m.Sum(nil)
	}
	k = mac(k, v, []byte{0x00}, x, h)
	v = mac(k, v)
	k = mac(k, v, []byte{0x01}, x, h)
	v = mac(k, v)

	for i := 0; ; i++ {
		v = mac(k, v)
		t := new(big.Int).SetBytes(v)
		if t.Sign() > 0 && t.Cmp(N) < 0 {
			if i >= attempt {
				return t
			}
		}
		k = mac(k, v, []byte{0x00})
		v = mac(k, v)
	}
}

// bits2octets reduces the hash modulo N per RFC 6979 §2.3.
func bits2octets(hash []byte) []byte {
	z := hashToInt(hash)
	z.Mod(z, N)
	out := make([]byte, 32)
	z.FillBytes(out)
	return out
}

// hashToInt converts a hash to an integer, truncating to the bit
// length of N as per SEC 1 §4.1.3.
func hashToInt(hash []byte) *big.Int {
	orderBytes := (N.BitLen() + 7) / 8
	if len(hash) > orderBytes {
		hash = hash[:orderBytes]
	}
	z := new(big.Int).SetBytes(hash)
	excess := len(hash)*8 - N.BitLen()
	if excess > 0 {
		z.Rsh(z, uint(excess))
	}
	return z
}
