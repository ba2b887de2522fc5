package aesx

import (
	"crypto/subtle"
	"encoding/binary"
)

// IVSize is the Shield's initialisation-vector length: each authenticated
// encryption chunk carries a 12-byte IV, and the low 4 bytes of the counter
// block index the 16-byte blocks within the chunk (paper §5.2.2).
const IVSize = 12

// CTR encrypts or decrypts src into dst using AES-CTR with the given
// 12-byte IV. The counter block is IV || big-endian 32-bit block counter
// starting at 0. dst and src may be the same slice (in place). The
// operation is its own inverse.
// Any Block implementation works: the reference *Cipher or a
// hardware-backed block from internal/crypto/engine. The counter scratch
// is sized to src (at most one batch); hot paths hold a CTRStream.
func CTR(c Block, iv [IVSize]byte, dst, src []byte) {
	xorKeyStream(c, iv, dst, src, make([]byte, min(roundBlocks(len(src)), BatchBlocks*BlockSize)))
}

// CTRStream holds the counter-block batch of a CTR pass as addressable
// state, so the Shield's seal scratch pool can check one out per in-flight
// chunk and drive a window's consecutive chunks through it. The counter
// blocks are rebuilt from the IV on every call (each chunk has its own
// IV); what persists across calls is only the scratch storage.
type CTRStream struct {
	ks [BatchBlocks * BlockSize]byte
}

// XORKeyStream encrypts or decrypts src into dst under iv, using the
// stream's scratch. Semantics match CTR; dst and src may be the same
// slice, but must not overlap otherwise (crypto/subtle.XORBytes).
func (st *CTRStream) XORKeyStream(c Block, iv [IVSize]byte, dst, src []byte) {
	xorKeyStream(c, iv, dst, src, st.ks[:])
}

// xorKeyStream runs CTR through the whole-block scratch ks: each batch of
// up to len(ks) bytes of counter blocks is encrypted in one EncryptBlocks
// call and then XORed into the data.
func xorKeyStream(c Block, iv [IVSize]byte, dst, src, ks []byte) {
	if len(dst) < len(src) {
		panic("aesx: CTR destination shorter than source")
	}
	ivHi := binary.BigEndian.Uint64(iv[0:8])
	ivLo := uint64(binary.BigEndian.Uint32(iv[8:12])) << 32
	ctr := uint32(0)
	for off := 0; off < len(src); off += len(ks) {
		n := min(len(src)-off, len(ks))
		batch := ks[:roundBlocks(n)]
		for b := 0; b < len(batch); b += BlockSize {
			binary.BigEndian.PutUint64(batch[b:], ivHi)
			binary.BigEndian.PutUint64(batch[b+8:], ivLo|uint64(ctr))
			ctr++
		}
		c.EncryptBlocks(batch, batch)
		subtle.XORBytes(dst[off:off+n], src[off:off+n], batch)
	}
}

// roundBlocks rounds n bytes up to whole blocks.
func roundBlocks(n int) int { return (n + BlockSize - 1) / BlockSize * BlockSize }

// ChunkIV derives the per-chunk IV for a Shield memory region. Successive
// chunks increment the IV by one (paper §5.2.2: "incremented by 1 for each
// successive chunk"), and the write version is folded in so that no two
// ciphertexts of the same chunk ever reuse an IV even across rewrites.
//
// Layout: 4-byte region ID || 4-byte chunk index || 4-byte version.
func ChunkIV(regionID uint32, chunkIndex uint32, version uint32) [IVSize]byte {
	var iv [IVSize]byte
	binary.BigEndian.PutUint32(iv[0:], regionID)
	binary.BigEndian.PutUint32(iv[4:], chunkIndex)
	binary.BigEndian.PutUint32(iv[8:], version)
	return iv
}
