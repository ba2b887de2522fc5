//go:build amd64 && !purego

package engine

import "shef/internal/crypto/aesx"

// aesKernelName names the multi-block AES-NI kernel in the selection log.
const aesKernelName = "aesni-x8"

// haveAESKernel reports whether the AES-NI kernel may run here. AESENC on
// a CPU without AES-NI raises SIGILL, so only a positive detection enables
// it; a probe that fails or finds nothing falls back to the stdlib path.
func haveAESKernel() bool { return Detect().AESNI }

// aesniBlock runs the AES-NI kernel over the round keys of the cached
// aesx key schedule.
type aesniBlock struct {
	rounds int
	xk     []byte // encryption round keys, FIPS-197 byte order
}

func newAESKernel(c *aesx.Cipher) aesx.Block {
	return &aesniBlock{rounds: c.KeySize().Rounds(), xk: c.RoundKeys()}
}

// EncryptBlocks implements aesx.Block: eight blocks per pass through the
// rounds, then the remainder one at a time.
func (b *aesniBlock) EncryptBlocks(dst, src []byte) {
	if n := aesx.BlockCount(dst, src); n > 0 {
		encryptBlocksAsm(b.rounds, &b.xk[0], &dst[0], &src[0], n)
	}
}

// encryptBlocksAsm encrypts n blocks from src to dst under the nr-round
// schedule xk. dst may alias src exactly.
//
//go:noescape
func encryptBlocksAsm(nr int, xk, dst, src *byte, n int)
