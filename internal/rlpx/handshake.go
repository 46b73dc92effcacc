// Package rlpx implements the RLPx transport protocol: the encrypted,
// authenticated TCP session layer of Ethereum's network stack.
//
// A connection is established in two phases (§2.1 of the paper):
//
//  1. An ECIES key-exchange handshake. The initiator sends an
//     encrypted "auth" message carrying a signature made with an
//     ephemeral key over (static-shared-secret XOR nonce); the
//     recipient answers with an encrypted "ack" carrying its own
//     ephemeral public key and nonce. Both sides then derive frame
//     secrets from the ephemeral ECDH result and the two nonces.
//
//  2. Framed messaging. Every message travels in a frame encrypted
//     with AES-256-CTR and authenticated with a rolling Keccak-256
//     MAC keyed per direction.
//
// The handshake uses the EIP-8 format (2-byte size prefix and RLP
// bodies with trailing padding) that clients of the paper's era emit.
// Snappy payload compression (devp2p ≥ 5) is supported via
// Conn.SetSnappy, which callers enable after the HELLO exchange when
// both sides advertise base protocol version 5, exactly as real
// clients do.
package rlpx

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"repro/internal/crypto/ecies"
	"repro/internal/crypto/keccak"
	"repro/internal/crypto/secp256k1"
	"repro/internal/enode"
	"repro/internal/rlp"
)

const (
	// handshake message versions.
	authVersion = 4
	ackVersion  = 4

	shaLen   = 32
	sigLen   = secp256k1.SignatureLength
	pubLen   = 64
	nonceLen = 32
)

// Handshake errors.
var (
	ErrBadHandshake = errors.New("rlpx: bad handshake")
)

// authMsgV4 is the EIP-8 auth body (initiator → recipient).
type authMsgV4 struct {
	Signature   [sigLen]byte
	InitiatorPK [pubLen]byte
	Nonce       [nonceLen]byte
	Version     uint
	Rest        []rlp.RawValue `rlp:"tail"`
}

// authAckV4 is the EIP-8 ack body (recipient → initiator).
type authAckV4 struct {
	EphemeralPK [pubLen]byte
	Nonce       [nonceLen]byte
	Version     uint
	Rest        []rlp.RawValue `rlp:"tail"`
}

// secrets are the symmetric session keys derived by the handshake.
type secrets struct {
	aes, mac              []byte
	egressMAC, ingressMAC *macState
	remoteID              enode.ID
}

// handshakeState accumulates one side's handshake.
type handshakeState struct {
	initiator bool
	remotePub *secp256k1.PublicKey // remote static key

	initNonce, respNonce []byte
	ephemeralKey         *secp256k1.PrivateKey
	remoteEphemeralPub   *secp256k1.PublicKey

	rbuf []byte // raw auth packet (for MAC seeding)
	wbuf []byte // raw ack packet
}

// xor32 xors two 32-byte values.
func xor32(a, b []byte) []byte {
	out := make([]byte, 32)
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// initiatorHandshake runs the auth/ack exchange from the dialing
// side. remoteID must be the expected node identity.
func initiatorHandshake(conn io.ReadWriter, priv *secp256k1.PrivateKey, remoteID enode.ID) (*secrets, error) {
	remotePub, err := remoteID.Pubkey()
	if err != nil {
		return nil, fmt.Errorf("rlpx: remote ID is not a valid key: %w", err)
	}
	h := &handshakeState{initiator: true, remotePub: remotePub}

	authPacket, err := h.makeAuthMsg(priv)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(authPacket); err != nil {
		return nil, fmt.Errorf("rlpx: writing auth: %w", err)
	}
	h.wbuf = authPacket

	ackPacket, ackPlain, err := readHandshakeMsg(conn, priv)
	if err != nil {
		return nil, err
	}
	h.rbuf = ackPacket
	var ack authAckV4
	if err := rlp.DecodeFirst(ackPlain, &ack); err != nil {
		return nil, fmt.Errorf("%w: decoding ack: %v", ErrBadHandshake, err)
	}
	h.respNonce = ack.Nonce[:]
	h.remoteEphemeralPub, err = secp256k1.ParsePublicKey(ack.EphemeralPK[:])
	if err != nil {
		return nil, fmt.Errorf("%w: bad ephemeral key in ack: %v", ErrBadHandshake, err)
	}
	return h.deriveSecrets(remoteID)
}

// recipientHandshake runs the exchange from the listening side and
// returns the discovered initiator identity.
func recipientHandshake(conn io.ReadWriter, priv *secp256k1.PrivateKey) (*secrets, error) {
	h := &handshakeState{}

	authPacket, authPlain, err := readHandshakeMsg(conn, priv)
	if err != nil {
		return nil, err
	}
	h.rbuf = authPacket
	var auth authMsgV4
	if err := rlp.DecodeFirst(authPlain, &auth); err != nil {
		return nil, fmt.Errorf("%w: decoding auth: %v", ErrBadHandshake, err)
	}
	remotePub, err := secp256k1.ParsePublicKey(auth.InitiatorPK[:])
	if err != nil {
		return nil, fmt.Errorf("%w: bad initiator key: %v", ErrBadHandshake, err)
	}
	h.remotePub = remotePub
	h.initNonce = auth.Nonce[:]

	// Recover the initiator's ephemeral key from the signature over
	// (static-shared-secret XOR nonce).
	ss, err := secp256k1.SharedSecret(priv, remotePub)
	if err != nil {
		return nil, fmt.Errorf("rlpx: static ECDH: %w", err)
	}
	signed := xor32(ss, h.initNonce)
	ephPub, err := secp256k1.RecoverPubkey(signed, auth.Signature[:])
	if err != nil {
		return nil, fmt.Errorf("%w: recovering ephemeral key: %v", ErrBadHandshake, err)
	}
	h.remoteEphemeralPub = ephPub

	// Send the ack.
	ackPacket, err := h.makeAuthAck(priv)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(ackPacket); err != nil {
		return nil, fmt.Errorf("rlpx: writing ack: %w", err)
	}
	h.wbuf = ackPacket
	return h.deriveSecrets(enode.PubkeyID(remotePub))
}

func (h *handshakeState) makeAuthMsg(priv *secp256k1.PrivateKey) ([]byte, error) {
	h.initNonce = make([]byte, nonceLen)
	if _, err := rand.Read(h.initNonce); err != nil {
		return nil, err
	}
	var err error
	h.ephemeralKey, err = secp256k1.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	ss, err := secp256k1.SharedSecret(priv, h.remotePub)
	if err != nil {
		return nil, fmt.Errorf("rlpx: static ECDH: %w", err)
	}
	signed := xor32(ss, h.initNonce)
	sig, err := secp256k1.Sign(h.ephemeralKey, signed)
	if err != nil {
		return nil, fmt.Errorf("rlpx: signing auth: %w", err)
	}
	msg := &authMsgV4{Version: authVersion}
	copy(msg.Signature[:], sig)
	copy(msg.InitiatorPK[:], priv.Pub.SerializeRaw())
	copy(msg.Nonce[:], h.initNonce)
	return sealEIP8(msg, h.remotePub)
}

func (h *handshakeState) makeAuthAck(priv *secp256k1.PrivateKey) ([]byte, error) {
	h.respNonce = make([]byte, nonceLen)
	if _, err := rand.Read(h.respNonce); err != nil {
		return nil, err
	}
	var err error
	h.ephemeralKey, err = secp256k1.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	msg := &authAckV4{Version: ackVersion}
	copy(msg.EphemeralPK[:], h.ephemeralKey.Pub.SerializeRaw())
	copy(msg.Nonce[:], h.respNonce)
	return sealEIP8(msg, h.remotePub)
}

// sealEIP8 RLP-encodes, pads, encrypts, and prefixes a handshake
// message per EIP-8.
func sealEIP8(msg any, remotePub *secp256k1.PublicKey) ([]byte, error) {
	body, err := rlp.EncodeToBytes(msg)
	if err != nil {
		return nil, err
	}
	// Random padding of 100-300 bytes disguises the message type.
	padLen := 100 + randByteInt(200)
	pad := make([]byte, padLen)
	rand.Read(pad)
	body = append(body, pad...)

	prefix := make([]byte, 2)
	ctLen := len(body) + ecies.Overhead
	prefix[0] = byte(ctLen >> 8)
	prefix[1] = byte(ctLen)

	ct, err := ecies.Encrypt(rand.Reader, remotePub, body, nil, prefix)
	if err != nil {
		return nil, err
	}
	return append(prefix, ct...), nil
}

func randByteInt(n int) int {
	var b [2]byte
	rand.Read(b[:])
	return (int(b[0])<<8 | int(b[1])) % n
}

// readHandshakeMsg reads a size-prefixed EIP-8 handshake packet and
// decrypts it. The plaintext is one RLP list followed by random
// padding, so callers decode it with rlp.DecodeFirst.
func readHandshakeMsg(r io.Reader, priv *secp256k1.PrivateKey) (packet, plain []byte, err error) {
	prefix := make([]byte, 2)
	if _, err := io.ReadFull(r, prefix); err != nil {
		return nil, nil, fmt.Errorf("rlpx: reading handshake size: %w", err)
	}
	size := int(prefix[0])<<8 | int(prefix[1])
	if size < ecies.Overhead {
		return nil, nil, fmt.Errorf("%w: handshake size %d too small", ErrBadHandshake, size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, nil, fmt.Errorf("rlpx: reading handshake body: %w", err)
	}
	plain, err = ecies.Decrypt(priv, buf, nil, prefix)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: decrypting: %v", ErrBadHandshake, err)
	}
	return append(prefix, buf...), plain, nil
}

// deriveSecrets computes the frame keys and MAC states (§ "secrets"
// of the RLPx spec).
func (h *handshakeState) deriveSecrets(remoteID enode.ID) (*secrets, error) {
	ephShared, err := secp256k1.SharedSecret(h.ephemeralKey, h.remoteEphemeralPub)
	if err != nil {
		return nil, fmt.Errorf("rlpx: ephemeral ECDH: %w", err)
	}
	// shared-secret = keccak(eph || keccak(respNonce || initNonce))
	nonceHash := keccak.Sum256(append(append([]byte{}, h.respNonce...), h.initNonce...))
	sharedSecret := keccak.Sum256(append(append([]byte{}, ephShared...), nonceHash[:]...))
	aesSecret := keccak.Sum256(append(append([]byte{}, ephShared...), sharedSecret[:]...))
	macSecret := keccak.Sum256(append(append([]byte{}, ephShared...), aesSecret[:]...))

	s := &secrets{aes: aesSecret[:], mac: macSecret[:], remoteID: remoteID}

	// MAC states: egress seeded with (mac-secret ^ remote-nonce) and
	// our outbound handshake packet; ingress with (mac-secret ^ own
	// nonce) and the inbound packet.
	var egressSeed, ingressSeed []byte
	if h.initiator {
		egressSeed = xor32(macSecret[:], h.respNonce)
		ingressSeed = xor32(macSecret[:], h.initNonce)
	} else {
		egressSeed = xor32(macSecret[:], h.initNonce)
		ingressSeed = xor32(macSecret[:], h.respNonce)
	}
	egress := newMACState(macSecret[:])
	egress.hash.Write(egressSeed)
	egress.hash.Write(h.wbuf)
	ingress := newMACState(macSecret[:])
	ingress.hash.Write(ingressSeed)
	ingress.hash.Write(h.rbuf)
	s.egressMAC, s.ingressMAC = egress, ingress
	return s, nil
}
