package alf

import (
	"encoding/binary"

	"repro/internal/cipher"
	"repro/internal/wire"
)

// CipherSuite selects the data-manipulation cipher stage for a stream
// (paper §3, §6). All suites share the ALF property that matters: the
// keystream is position-addressable, so fragments decipher in any order
// and every 8-byte-aligned fragment offset is its own synchronization
// point.
type CipherSuite uint8

const (
	// SuiteAuto (the zero value) keeps the legacy behavior: the
	// scramble keystream when Config.Key is non-zero, cleartext
	// otherwise. fill resolves it to one of the concrete suites.
	SuiteAuto CipherSuite = iota
	// SuiteNone sends cleartext; integrity is the Internet checksum.
	SuiteNone
	// SuiteScramble is the xorshift64* simulation keystream (see
	// internal/scramble): a stand-in cipher that exercises the fused
	// datapath shape. Integrity is still the Internet checksum.
	SuiteScramble
	// SuiteAEAD is the real construction: ChaCha20 encryption with a
	// per-fragment Poly1305 tag (RFC 8439 primitives, internal/cipher).
	// The tag replaces the Internet checksum as the integrity pass —
	// the wire fragment is header ‖ ciphertext ‖ 16-byte tag, the
	// header's ADU-checksum field is zero, and a fragment that fails
	// verification is discarded as if lost (recovery re-requests it).
	// Note the scope: this authenticates the datapath against
	// corruption and casual tampering; it is not a vetted secure
	// channel (no handshake, no key rotation, no replay window beyond
	// the ADU name space).
	SuiteAEAD
)

// String returns the suite name.
func (cs CipherSuite) String() string {
	switch cs {
	case SuiteAuto:
		return "auto"
	case SuiteNone:
		return "none"
	case SuiteScramble:
		return "scramble"
	case SuiteAEAD:
		return "aead"
	default:
		return "invalid-suite"
	}
}

// The wire layout reserves wire.TagSize bytes after the ciphertext of
// every SuiteAEAD fragment for the Poly1305 tag; the two must agree.
const _ = uint(cipher.TagSize-wire.TagSize) + uint(wire.TagSize-cipher.TagSize)

// ChaCha20 block-counter domains. The payload keystream for an ADU
// starts at counter 1 (aeadOff in internal/ilp), growing upward by one
// per 64 bytes; the one-time Poly1305 tag keys live in two high ranges
// indexed by fragment offset so no counter is ever used for both
// keystream and tag-key material:
//
//	payload keystream   1 + off/64        (off < 2^33 keeps it below 2^30)
//	data fragment tags  2^30 + off/8
//	parity tags         2^31 + off/8
//
// Validate caps MaxADU at 2^33 under SuiteAEAD so the domains cannot
// collide.
const (
	tagCtrData   = 1 << 30
	tagCtrParity = 1 << 31
)

// aeadMaxADU is the largest ADU the counter-domain layout supports.
const aeadMaxADU = 1 << 33

// aeadNonce builds the per-ADU nonce: the stream id and the ADU name.
// Names are sender-assigned and sequential, so (key, nonce) pairs never
// repeat within a stream, and the stream id separates streams sharing a
// key.
func aeadNonce(stream byte, name uint64) [cipher.NonceSize]byte {
	var n [cipher.NonceSize]byte
	n[0] = stream
	binary.BigEndian.PutUint64(n[4:12], name)
	return n
}

// newTagMAC derives the fragment's one-time Poly1305 key from the
// ChaCha20 block at the given counter (RFC 8439 §2.6 shape, one key per
// fragment instead of per message) and returns a ready accumulator.
// Everything stays on the stack: the per-fragment hot path allocates
// nothing.
func newTagMAC(key *cipher.Key, nonce *[cipher.NonceSize]byte, ctr uint32) cipher.MAC {
	var otk [32]byte
	cipher.TagKey(key, nonce, ctr, &otk)
	return cipher.NewMAC(&otk)
}
