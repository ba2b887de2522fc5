// Package aesx implements the AES block cipher (FIPS 197) for 128- and
// 256-bit keys, the CTR mode the ShEF Shield uses for memory encryption,
// and a cycle-cost model mirroring the Shield's configurable AES engines.
//
// The paper's AES engine (§5.2.2) contains an internal 256-byte S-box
// lookup table that can be duplicated up to 16 times, trading LUTs for
// latency; the key size (128 or 256 bits) is selected at bitstream
// compilation. Engine describes one such engine instance and exposes both
// the functional transform and its simulated cost.
package aesx

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Block is the forward-direction block cipher interface the CTR and PMAC
// layers run over. EncryptBlocks encrypts every 16-byte block of src into
// the same offset of dst, independently (ECB); src must be whole blocks,
// dst at least as long, and dst may alias src exactly. CTR and PMAC hand
// it a batch of independent blocks per call, so an implementation can
// keep several blocks in flight, as the paper's engine sets do with
// parallel AES engines (§6.2). *Cipher implements it, and so do the
// hardware-backed engines in internal/crypto/engine, which is what lets
// the engine-selection layer swap implementations under an unchanged data
// path.
type Block interface {
	EncryptBlocks(dst, src []byte)
}

// BatchBlocks is the number of blocks the CTR and PMAC layers hand to one
// EncryptBlocks call: 256 bytes, enough to amortise the call and keep an
// 8-way interleaving kernel's pipeline full, small enough that the
// per-worker scratch of every resident engine set stays small (32 blocks
// ran no faster and grew the attest workload's peak memory).
const BatchBlocks = 16

// BlockCount returns the number of blocks in src, panicking unless src is
// whole blocks and dst is at least as long. It is the EncryptBlocks
// argument check every Block implementation shares.
func BlockCount(dst, src []byte) int {
	if len(src)%BlockSize != 0 || len(dst) < len(src) {
		panic("aesx: EncryptBlocks needs whole blocks and a destination as long as the source")
	}
	return len(src) / BlockSize
}

// KeySize selects the AES key length.
type KeySize int

// Supported key sizes.
const (
	AES128 KeySize = 16
	AES256 KeySize = 32
)

// Rounds returns the number of AES rounds for the key size.
func (k KeySize) Rounds() int {
	if k == AES256 {
		return 14
	}
	return 10
}

func (k KeySize) String() string {
	if k == AES256 {
		return "AES-256"
	}
	return "AES-128"
}

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// sbox is the AES forward S-box.
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// rcon holds the key-schedule round constants.
var rcon = [11]byte{0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// Cipher is an expanded AES key: the encryption key schedule plus the
// precomputed decryption (equivalent inverse cipher) schedule. A Cipher is
// immutable after construction, so one instance is safely shared by any
// number of goroutines — which is what lets the schedule cache below hand
// the same expansion to every caller of a key.
type Cipher struct {
	size   KeySize
	rounds int
	rk     []uint32 // encryption round keys, 4 words per round plus initial
	dk     []uint32 // decryption round keys (InvMixColumns-adjusted, reversed)
}

// schedCache caches expanded key schedules per key so that repeated
// NewCipher calls for the same key — host-side SealRegionData/
// OpenRegionData pairs, sealer rebuilds on re-provisioning, PMAC subkey
// setup — reuse the expansion instead of re-running it. The cache is
// bounded: when it reaches schedCacheMax entries it is cleared wholesale
// (key churn across many sessions must not grow the process without
// bound).
var schedCache struct {
	sync.RWMutex
	m map[string]*Cipher
}

const schedCacheMax = 512

// NewCipher expands key (16 or 32 bytes) into a Cipher, consulting the
// per-key schedule cache first. Both the encryption and decryption
// schedules are computed once per key, never per call.
func NewCipher(key []byte) (*Cipher, error) {
	switch len(key) {
	case int(AES128), int(AES256):
	default:
		return nil, fmt.Errorf("aesx: invalid key length %d (want 16 or 32)", len(key))
	}
	schedCache.RLock()
	c := schedCache.m[string(key)]
	schedCache.RUnlock()
	if c != nil {
		return c, nil
	}
	c = expandKey(key)
	schedCache.Lock()
	if schedCache.m == nil || len(schedCache.m) >= schedCacheMax {
		schedCache.m = make(map[string]*Cipher)
	}
	schedCache.m[string(key)] = c
	schedCache.Unlock()
	return c, nil
}

// expandKey runs the FIPS-197 key expansion and derives the equivalent
// inverse cipher schedule from it.
func expandKey(key []byte) *Cipher {
	size := KeySize(len(key))
	c := &Cipher{size: size, rounds: size.Rounds()}
	nk := len(key) / 4
	n := 4 * (c.rounds + 1)
	c.rk = make([]uint32, n)
	for i := 0; i < nk; i++ {
		c.rk[i] = binary.BigEndian.Uint32(key[i*4:])
	}
	for i := nk; i < n; i++ {
		t := c.rk[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ uint32(rcon[i/nk])<<24
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		c.rk[i] = c.rk[i-nk] ^ t
	}
	// Decryption schedule (equivalent inverse cipher): the encryption round
	// keys in reverse round order, with InvMixColumns applied to every key
	// except the first and last. td0[sbox[b]] is exactly InvMixColumns of
	// the word with byte b, because td composes InvSubBytes∘InvMixColumns
	// and sbox cancels the InvSubBytes.
	c.dk = make([]uint32, n)
	for i := 0; i < n; i += 4 {
		copy(c.dk[i:i+4], c.rk[n-4-i:n-i])
	}
	for i := 4; i < n-4; i++ {
		w := c.dk[i]
		c.dk[i] = td0[sbox[w>>24]] ^ td1[sbox[w>>16&0xff]] ^ td2[sbox[w>>8&0xff]] ^ td3[sbox[w&0xff]]
	}
	return c
}

// KeySize reports the cipher's key size.
func (c *Cipher) KeySize() KeySize { return c.size }

// RoundKeys returns a copy of the encryption key schedule as bytes in
// FIPS-197 order: round key r is bytes [16r, 16r+16), the layout the
// AES-NI instructions load directly.
func (c *Cipher) RoundKeys() []byte {
	b := make([]byte, 4*len(c.rk))
	for i, w := range c.rk {
		binary.BigEndian.PutUint32(b[4*i:], w)
	}
	return b
}

// te0..te3 are the standard AES encryption T-tables: each entry combines
// SubBytes and MixColumns for one input byte, so a round reduces to 16
// table lookups and XORs. td0..td3 are their decryption duals (InvSubBytes
// combined with InvMixColumns), and sboxInv the inverse S-box for the
// final decryption round. All built once at init from the S-box.
var te0, te1, te2, te3 [256]uint32
var td0, td1, td2, td3 [256]uint32
var sboxInv [256]byte

// gmul multiplies two bytes in GF(2^8) with the AES polynomial.
func gmul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

func init() {
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := xtime(s)
		s3 := s2 ^ s
		w := uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		te0[i] = w
		te1[i] = w>>8 | w<<24
		te2[i] = w>>16 | w<<16
		te3[i] = w>>24 | w<<8
		sboxInv[s] = byte(i)
	}
	for i := 0; i < 256; i++ {
		s := sboxInv[i]
		w := uint32(gmul(s, 0x0e))<<24 | uint32(gmul(s, 0x09))<<16 |
			uint32(gmul(s, 0x0d))<<8 | uint32(gmul(s, 0x0b))
		td0[i] = w
		td1[i] = w>>8 | w<<24
		td2[i] = w>>16 | w<<16
		td3[i] = w>>24 | w<<8
	}
}

// EncryptBlock encrypts one 16-byte block src into dst (may alias).
func (c *Cipher) EncryptBlock(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aesx: short block")
	}
	rk := c.rk
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ rk[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ rk[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ rk[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ rk[3]
	k := 4
	for r := 1; r < c.rounds; r++ {
		t0 := te0[s0>>24] ^ te1[s1>>16&0xff] ^ te2[s2>>8&0xff] ^ te3[s3&0xff] ^ rk[k]
		t1 := te0[s1>>24] ^ te1[s2>>16&0xff] ^ te2[s3>>8&0xff] ^ te3[s0&0xff] ^ rk[k+1]
		t2 := te0[s2>>24] ^ te1[s3>>16&0xff] ^ te2[s0>>8&0xff] ^ te3[s1&0xff] ^ rk[k+2]
		t3 := te0[s3>>24] ^ te1[s0>>16&0xff] ^ te2[s1>>8&0xff] ^ te3[s2&0xff] ^ rk[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	// Final round: SubBytes + ShiftRows only.
	t0 := uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xff])<<16 | uint32(sbox[s2>>8&0xff])<<8 | uint32(sbox[s3&0xff])
	t1 := uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xff])<<16 | uint32(sbox[s3>>8&0xff])<<8 | uint32(sbox[s0&0xff])
	t2 := uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xff])<<16 | uint32(sbox[s0>>8&0xff])<<8 | uint32(sbox[s1&0xff])
	t3 := uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xff])<<16 | uint32(sbox[s1>>8&0xff])<<8 | uint32(sbox[s2&0xff])
	binary.BigEndian.PutUint32(dst[0:4], t0^rk[k])
	binary.BigEndian.PutUint32(dst[4:8], t1^rk[k+1])
	binary.BigEndian.PutUint32(dst[8:12], t2^rk[k+2])
	binary.BigEndian.PutUint32(dst[12:16], t3^rk[k+3])
}

// EncryptBlocks encrypts each block of src into dst (the Block
// contract), one block at a time.
func (c *Cipher) EncryptBlocks(dst, src []byte) {
	n := BlockCount(dst, src)
	for off := 0; off < n*BlockSize; off += BlockSize {
		c.EncryptBlock(dst[off:off+BlockSize], src[off:off+BlockSize])
	}
}

// DecryptBlock decrypts one 16-byte block src into dst (may alias), using
// the decryption key schedule precomputed at expansion time. The Shield's
// CTR data path never needs it (CTR decrypts by re-encrypting the counter
// stream), but ECB-style consumers of the cached schedules do.
func (c *Cipher) DecryptBlock(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aesx: short block")
	}
	dk := c.dk
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ dk[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ dk[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ dk[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ dk[3]
	k := 4
	for r := 1; r < c.rounds; r++ {
		t0 := td0[s0>>24] ^ td1[s3>>16&0xff] ^ td2[s2>>8&0xff] ^ td3[s1&0xff] ^ dk[k]
		t1 := td0[s1>>24] ^ td1[s0>>16&0xff] ^ td2[s3>>8&0xff] ^ td3[s2&0xff] ^ dk[k+1]
		t2 := td0[s2>>24] ^ td1[s1>>16&0xff] ^ td2[s0>>8&0xff] ^ td3[s3&0xff] ^ dk[k+2]
		t3 := td0[s3>>24] ^ td1[s2>>16&0xff] ^ td2[s1>>8&0xff] ^ td3[s0&0xff] ^ dk[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	// Final round: InvSubBytes + InvShiftRows only.
	t0 := uint32(sboxInv[s0>>24])<<24 | uint32(sboxInv[s3>>16&0xff])<<16 | uint32(sboxInv[s2>>8&0xff])<<8 | uint32(sboxInv[s1&0xff])
	t1 := uint32(sboxInv[s1>>24])<<24 | uint32(sboxInv[s0>>16&0xff])<<16 | uint32(sboxInv[s3>>8&0xff])<<8 | uint32(sboxInv[s2&0xff])
	t2 := uint32(sboxInv[s2>>24])<<24 | uint32(sboxInv[s1>>16&0xff])<<16 | uint32(sboxInv[s0>>8&0xff])<<8 | uint32(sboxInv[s3&0xff])
	t3 := uint32(sboxInv[s3>>24])<<24 | uint32(sboxInv[s2>>16&0xff])<<16 | uint32(sboxInv[s1>>8&0xff])<<8 | uint32(sboxInv[s0&0xff])
	binary.BigEndian.PutUint32(dst[0:4], t0^dk[k])
	binary.BigEndian.PutUint32(dst[4:8], t1^dk[k+1])
	binary.BigEndian.PutUint32(dst[8:12], t2^dk[k+2])
	binary.BigEndian.PutUint32(dst[12:16], t3^dk[k+3])
}

// encryptBlockReference is the straightforward FIPS-197 round-function
// implementation. It is kept as the specification the T-table fast path is
// tested against (TestTTableMatchesReference).
func (c *Cipher) encryptBlockReference(dst, src []byte) {
	var s [16]byte
	copy(s[:], src[:16])
	addRoundKey(&s, c.rk[0:4])
	for r := 1; r < c.rounds; r++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		addRoundKey(&s, c.rk[4*r:4*r+4])
	}
	subBytes(&s)
	shiftRows(&s)
	addRoundKey(&s, c.rk[4*c.rounds:4*c.rounds+4])
	copy(dst[:16], s[:])
}

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func addRoundKey(s *[16]byte, rk []uint32) {
	for c := 0; c < 4; c++ {
		w := rk[c]
		s[4*c+0] ^= byte(w >> 24)
		s[4*c+1] ^= byte(w >> 16)
		s[4*c+2] ^= byte(w >> 8)
		s[4*c+3] ^= byte(w)
	}
}

func subBytes(s *[16]byte) {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

func shiftRows(s *[16]byte) {
	// State is column-major: s[4c+r] is row r, column c.
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

func mixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		s[4*c+1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		s[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		s[4*c+3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
}
