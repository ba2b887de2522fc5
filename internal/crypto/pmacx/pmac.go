// Package pmacx implements PMAC (a parallelisable message authentication
// code, Black–Rogaway) over AES, plus its cycle model.
//
// The paper replaces the serial HMAC engine with PMAC engines when a
// workload is authentication-bound (§6.2.3, §6.2.4): because PMAC's block
// computations are independent, MAC throughput scales with the number of
// engines, unlike HMAC. The implementation below follows the PMAC1
// construction: Sigma = XOR_i AES(M_i xor Delta_i), tag = AES(Sigma xor
// pad(M_last) xor Delta*), where the offsets Delta derive from L = AES(0)
// by Galois-field doubling.
package pmacx

import (
	"crypto/subtle"
	"encoding/binary"
	"math/bits"

	"shef/internal/crypto/aesx"
)

// TagSize matches the Shield's 16-byte stored tag.
const TagSize = 16

// MAC is a PMAC instance bound to one AES key. The underlying block
// cipher is any aesx.Block — the scalar reference cipher or a
// hardware-backed block from internal/crypto/engine.
type MAC struct {
	cipher aesx.Block
	l      [16]byte // L = AES_K(0^128)
	lInv   [16]byte // L / x, for final-block offset when the last block is full
	// Word forms of l and lInv (big-endian hi/lo halves) feed the
	// word-wise SumWith loop, which runs the offset doubling and the
	// XOR folds 8 bytes at a time instead of byte by byte.
	lHi, lLo       uint64
	lInvHi, lInvLo uint64
}

// New builds a PMAC instance over the given AES key (16 or 32 bytes),
// using the scalar reference cipher.
func New(key []byte) (*MAC, error) {
	c, err := aesx.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return NewWithBlock(c), nil
}

// NewWithBlock builds a PMAC instance over an already-constructed block
// cipher, letting callers choose the engine implementation.
func NewWithBlock(b aesx.Block) *MAC {
	m := &MAC{cipher: b}
	b.EncryptBlocks(m.l[:], m.l[:]) // L = AES_K(0^128), in place
	m.lInv = halve(m.l)
	m.lHi = binary.BigEndian.Uint64(m.l[0:8])
	m.lLo = binary.BigEndian.Uint64(m.l[8:16])
	m.lInvHi = binary.BigEndian.Uint64(m.lInv[0:8])
	m.lInvLo = binary.BigEndian.Uint64(m.lInv[8:16])
	return m
}

// Scratch holds the block buffers of one in-flight PMAC computation.
// They cannot live on SumWith's stack: the buffers cross the aesx.Block
// interface boundary, so escape analysis would heap-allocate them per
// call. Callers on the hot path keep one Scratch per worker (the
// Shield's seal scratch does); a zero Scratch is ready for use.
type Scratch struct {
	batch [aesx.BatchBlocks * 16]byte
	final [16]byte
}

// Sum computes the 16-byte PMAC tag of msg. It allocates a transient
// scratch; hot paths should hold a Scratch and call SumWith.
func (m *MAC) Sum(msg []byte) [TagSize]byte {
	var sc Scratch
	return m.SumWith(&sc, msg)
}

// SumWith computes the 16-byte PMAC tag of msg using caller scratch,
// allocating nothing. The block encryptions are independent, so they run
// a batch at a time: M_i xor Delta_i for up to aesx.BatchBlocks blocks is
// written into the scratch batch, encrypted in one EncryptBlocks call,
// and folded into Sigma. The offset doubling runs on big-endian uint64
// halves and the XORs on little-endian loads of the message, so only the
// offsets and the final Sigma are byte-swapped — bit-identical to the
// byte-wise reference (the property tests against Sum and the committed
// fuzz corpus pin this).
func (m *MAC) SumWith(sc *Scratch, msg []byte) [TagSize]byte {
	full := len(msg) / 16
	rem := len(msg) % 16
	lastFull := rem == 0 && full > 0
	n := full
	if lastFull {
		n-- // final full block is folded into the tag computation instead
	}
	deltaHi, deltaLo := m.lHi, m.lLo
	var sigmaHi, sigmaLo uint64
	for i := 0; i < n; i += aesx.BatchBlocks {
		in := msg[i*16 : min(n, i+aesx.BatchBlocks)*16]
		b := sc.batch[:len(in)]
		for off := 0; off+16 <= len(in); off += 16 {
			deltaHi, deltaLo = doubleWords(deltaHi, deltaLo)
			src, dst := in[off:off+16], b[off:off+16]
			binary.LittleEndian.PutUint64(dst[:8], binary.LittleEndian.Uint64(src[:8])^bits.ReverseBytes64(deltaHi))
			binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(src[8:])^bits.ReverseBytes64(deltaLo))
		}
		m.cipher.EncryptBlocks(b, b)
		for off := 0; off+16 <= len(b); off += 16 {
			blk := b[off : off+16]
			sigmaHi ^= binary.LittleEndian.Uint64(blk[:8])
			sigmaLo ^= binary.LittleEndian.Uint64(blk[8:])
		}
	}
	// Sigma was folded from little-endian loads; XOR commutes with the
	// byte swap, so one swap per word restores the big-endian halves.
	sigmaHi, sigmaLo = bits.ReverseBytes64(sigmaHi), bits.ReverseBytes64(sigmaLo)
	// Fold in the final block.
	if lastFull {
		blk := msg[len(msg)-16:]
		binary.BigEndian.PutUint64(sc.final[0:8], binary.BigEndian.Uint64(blk[0:8])^sigmaHi^m.lInvHi)
		binary.BigEndian.PutUint64(sc.final[8:16], binary.BigEndian.Uint64(blk[8:16])^sigmaLo^m.lInvLo)
	} else {
		// Pad 10* and do not apply the L/x offset (distinguishes lengths).
		sc.final = [16]byte{}
		copy(sc.final[:], msg[full*16:])
		sc.final[rem] = 0x80
		binary.BigEndian.PutUint64(sc.final[0:8], binary.BigEndian.Uint64(sc.final[0:8])^sigmaHi)
		binary.BigEndian.PutUint64(sc.final[8:16], binary.BigEndian.Uint64(sc.final[8:16])^sigmaLo)
	}
	m.cipher.EncryptBlocks(sc.final[:], sc.final[:])
	return sc.final
}

// Verify reports whether tag authenticates msg, in constant time.
func (m *MAC) Verify(msg []byte, tag [TagSize]byte) bool {
	want := m.Sum(msg)
	return subtle.ConstantTimeCompare(want[:], tag[:]) == 1
}

// VerifyWith reports whether tag authenticates msg using caller scratch,
// in constant time and without allocating.
func (m *MAC) VerifyWith(sc *Scratch, msg []byte, tag [TagSize]byte) bool {
	want := m.SumWith(sc, msg)
	return subtle.ConstantTimeCompare(want[:], tag[:]) == 1
}

// double multiplies a 128-bit block by x in GF(2^128) with the standard
// 0x87 reduction.
func double(b [16]byte) [16]byte {
	hi, lo := doubleWords(binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16]))
	var out [16]byte
	binary.BigEndian.PutUint64(out[0:8], hi)
	binary.BigEndian.PutUint64(out[8:16], lo)
	return out
}

// doubleWords is double on big-endian uint64 halves. The reduction is
// masked rather than branched on: the offsets are key-dependent, so a
// branch would both mispredict half the time and leak timing.
func doubleWords(hi, lo uint64) (uint64, uint64) {
	mask := uint64(int64(hi) >> 63)
	return hi<<1 | lo>>63, lo<<1 ^ mask&0x87
}

// halve multiplies by x^-1 in GF(2^128).
func halve(b [16]byte) [16]byte {
	var out [16]byte
	low := b[15] & 1
	carry := byte(0)
	for i := 0; i < 16; i++ {
		out[i] = b[i]>>1 | carry<<7
		carry = b[i] & 1
	}
	if low != 0 {
		out[0] ^= 0x80
		out[15] ^= 0x43
	}
	return out
}

// Cycles is the cost of MACing n bytes on `engines` parallel PMAC engines,
// each processing one AES block per aesCyclesPerBlock cycles. The block
// computations distribute across engines; the final XOR-fold and tag
// encryption are a small serial tail.
func Cycles(n int, engines int, aesCyclesPerBlock uint64) uint64 {
	if engines < 1 {
		engines = 1
	}
	blocks := (n + 15) / 16
	if blocks == 0 {
		blocks = 1
	}
	waves := uint64((blocks + engines - 1) / engines)
	return waves*aesCyclesPerBlock + aesCyclesPerBlock // parallel phase + final tag block
}
