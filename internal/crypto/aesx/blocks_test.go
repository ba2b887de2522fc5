package aesx_test

import (
	"bytes"
	"math/rand"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/engine"
)

// TestEncryptBlocksMatchesReference is the differential check of the
// batched entry point: every engine's EncryptBlocks, at block counts
// around the AES-NI kernel's 8-block stride and the CTR/PMAC batch size,
// for AES-128 and AES-256 (10 and 14 rounds), out of place and with dst
// equal to src, must match the schoolbook FIPS-197 rounds block by block.
func TestEncryptBlocksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, ks := range []aesx.KeySize{aesx.AES128, aesx.AES256} {
		key := make([]byte, ks)
		rng.Read(key)
		ref, err := aesx.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []engine.Kind{engine.Scalar, engine.Hardware} {
			blk, err := engine.NewAES(key, kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 256} {
				src := make([]byte, n*aesx.BlockSize)
				rng.Read(src)
				want := make([]byte, len(src))
				for off := 0; off < len(src); off += aesx.BlockSize {
					ref.EncryptBlockReference(want[off:], src[off:])
				}
				got := make([]byte, len(src))
				blk.EncryptBlocks(got, src)
				if !bytes.Equal(got, want) {
					t.Fatalf("%v %v, %d blocks: EncryptBlocks diverges from the reference", kind, ks, n)
				}
				blk.EncryptBlocks(src, src)
				if !bytes.Equal(src, want) {
					t.Fatalf("%v %v, %d blocks, dst == src: EncryptBlocks diverges from the reference", kind, ks, n)
				}
			}
		}
	}
}

// TestEncryptBlocksRejectsPartialBlocks pins the argument contract every
// Block shares: a ragged source or a short destination is a caller bug.
func TestEncryptBlocksRejectsPartialBlocks(t *testing.T) {
	for _, kind := range []engine.Kind{engine.Scalar, engine.Hardware} {
		blk, err := engine.NewAES(make([]byte, 16), kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ dst, src int }{{17, 17}, {16, 32}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: EncryptBlocks(dst %d, src %d bytes) did not panic", kind, c.dst, c.src)
					}
				}()
				blk.EncryptBlocks(make([]byte, c.dst), make([]byte, c.src))
			}()
		}
	}
}
