package shield

import (
	"bytes"
	"errors"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/engine"
)

// fuzzSealers builds HMAC and PMAC sealers over a fixed region shape for
// every engine kind — scalar reference and hardware-backed — so the seal/
// open corpus exercises both functional crypto paths in one run; the
// fuzzer varies chunk index, write counter, and payload.
func fuzzSealers(t testing.TB) []*sealer {
	cfg := RegionConfig{
		Name: "fuzz", Base: 0, Size: 1 << 16, ChunkSize: 512,
		AESEngines: 2, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		Freshness: true,
	}
	dek := bytes.Repeat([]byte{0x42}, 32)
	var out []*sealer
	for _, mac := range []MACKind{HMAC, PMAC} {
		for _, kind := range []engine.Kind{engine.Scalar, engine.Hardware} {
			c := cfg
			c.MAC = mac
			s, err := newSealer(c, 3, dek, kind)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	return out
}

// FuzzSealOpenRoundtrip drives the chunk AEAD through arbitrary chunk
// indices, write epochs, and payloads: every seal must open back to the
// plaintext, and any single-byte corruption of ciphertext or tag must be
// rejected as an IntegrityError — for both MAC engines.
func FuzzSealOpenRoundtrip(f *testing.F) {
	f.Add(0, uint32(0), []byte("hello shield"), uint16(0))
	f.Add(127, uint32(1), make([]byte, 512), uint16(3))
	f.Add(1, uint32(0xFFFF_FFFF), []byte{0}, uint16(999))
	f.Add(63, uint32(7), bytes.Repeat([]byte{0xA5}, 129), uint16(42))
	sealers := fuzzSealers(f)
	f.Fuzz(func(t *testing.T, chunk int, counter uint32, data []byte, flip uint16) {
		if chunk < 0 {
			chunk = -(chunk + 1)
		}
		chunk %= 1 << 20
		if len(data) > 4096 {
			data = data[:4096]
		}
		for _, s := range sealers {
			ct, tag := s.sealChunk(chunk, counter, data)
			if len(ct) != len(data) {
				t.Fatalf("%v: ciphertext length %d, want %d", s.cfg.MAC, len(ct), len(data))
			}
			plain, err := s.openChunk(chunk, counter, ct, tag)
			if err != nil {
				t.Fatalf("%v: roundtrip rejected: %v", s.cfg.MAC, err)
			}
			if !bytes.Equal(plain, data) {
				t.Fatalf("%v: roundtrip mutated data", s.cfg.MAC)
			}
			// Corrupt one ciphertext byte (when there is one): must fail.
			if len(ct) > 0 {
				bad := append([]byte(nil), ct...)
				bad[int(flip)%len(bad)] ^= 1
				if _, err := s.openChunk(chunk, counter, bad, tag); !isIntegrity(err) {
					t.Fatalf("%v: corrupted ciphertext accepted (err=%v)", s.cfg.MAC, err)
				}
			}
			// Corrupt the tag: must fail.
			badTag := tag
			badTag[int(flip)%TagSize] ^= 1
			if _, err := s.openChunk(chunk, counter, ct, badTag); !isIntegrity(err) {
				t.Fatalf("%v: corrupted tag accepted (err=%v)", s.cfg.MAC, err)
			}
			// Splicing to a different chunk index or replaying an older
			// epoch must fail.
			if _, err := s.openChunk(chunk+1, counter, ct, tag); !isIntegrity(err) {
				t.Fatalf("%v: spliced chunk accepted (err=%v)", s.cfg.MAC, err)
			}
			if _, err := s.openChunk(chunk, counter+1, ct, tag); !isIntegrity(err) {
				t.Fatalf("%v: replayed epoch accepted (err=%v)", s.cfg.MAC, err)
			}
		}
	})
}

func isIntegrity(err error) bool {
	var ie *IntegrityError
	return errors.As(err, &ie)
}

// FuzzEngineParity is the differential anchor of the engine-selection
// layer: over arbitrary chunk indices, write epochs, and payloads, the
// scalar reference engines and the hardware-backed stdlib engines must
// produce byte-identical ciphertext and tags (for AES-CTR with both HMAC-
// SHA256 and PMAC), each must open what the other sealed, and both must
// reject the corruption, splice, and replay cases the seal/open corpus
// checks.
func FuzzEngineParity(f *testing.F) {
	f.Add(0, uint32(0), []byte("engine parity"), uint16(0))
	f.Add(511, uint32(9), make([]byte, 512), uint16(77))
	f.Add(2, uint32(0xFFFF_FFFF), bytes.Repeat([]byte{0x5A}, 100), uint16(5))
	// Payloads one byte either side of the CTR/PMAC batch, and a 4 KB
	// chunk, whose MAC input is 4096+12 bytes.
	batch := aesx.BatchBlocks * aesx.BlockSize
	for _, n := range []int{batch - 1, batch, batch + 1, 4096} {
		f.Add(n, uint32(n), bytes.Repeat([]byte{0xC3}, n), uint16(n))
	}
	cfg := RegionConfig{
		Name: "parity", Base: 0, Size: 1 << 16, ChunkSize: 512,
		AESEngines: 2, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		Freshness: true,
	}
	dek := bytes.Repeat([]byte{0x7E}, 32)
	type pair struct{ scalar, hardware *sealer }
	var pairs []pair
	for _, mac := range []MACKind{HMAC, PMAC} {
		c := cfg
		c.MAC = mac
		sc, err := newSealer(c, 5, dek, engine.Scalar)
		if err != nil {
			f.Fatal(err)
		}
		hw, err := newSealer(c, 5, dek, engine.Hardware)
		if err != nil {
			f.Fatal(err)
		}
		pairs = append(pairs, pair{sc, hw})
	}
	f.Fuzz(func(t *testing.T, chunk int, counter uint32, data []byte, flip uint16) {
		if chunk < 0 {
			chunk = -(chunk + 1)
		}
		chunk %= 1 << 20
		if len(data) > 4096 {
			data = data[:4096]
		}
		for _, p := range pairs {
			mac := p.scalar.cfg.MAC
			ctS, tagS := p.scalar.sealChunk(chunk, counter, data)
			ctH, tagH := p.hardware.sealChunk(chunk, counter, data)
			if !bytes.Equal(ctS, ctH) {
				t.Fatalf("%v: ciphertext diverges between engines", mac)
			}
			if tagS != tagH {
				t.Fatalf("%v: tag diverges between engines", mac)
			}
			// Cross-open: each engine must accept the other's output.
			plain, err := p.scalar.openChunk(chunk, counter, ctH, tagH)
			if err != nil || !bytes.Equal(plain, data) {
				t.Fatalf("%v: scalar engine rejected hardware seal (err=%v)", mac, err)
			}
			plain, err = p.hardware.openChunk(chunk, counter, ctS, tagS)
			if err != nil || !bytes.Equal(plain, data) {
				t.Fatalf("%v: hardware engine rejected scalar seal (err=%v)", mac, err)
			}
			// Both engines must reject the same tampering.
			for _, s := range []*sealer{p.scalar, p.hardware} {
				if len(ctS) > 0 {
					bad := append([]byte(nil), ctS...)
					bad[int(flip)%len(bad)] ^= 1
					if _, err := s.openChunk(chunk, counter, bad, tagS); !isIntegrity(err) {
						t.Fatalf("%v: corrupted ciphertext accepted (err=%v)", mac, err)
					}
				}
				badTag := tagS
				badTag[int(flip)%TagSize] ^= 1
				if _, err := s.openChunk(chunk, counter, ctS, badTag); !isIntegrity(err) {
					t.Fatalf("%v: corrupted tag accepted (err=%v)", mac, err)
				}
				if _, err := s.openChunk(chunk+1, counter, ctS, tagS); !isIntegrity(err) {
					t.Fatalf("%v: spliced chunk accepted (err=%v)", mac, err)
				}
				if _, err := s.openChunk(chunk, counter+1, ctS, tagS); !isIntegrity(err) {
					t.Fatalf("%v: replayed epoch accepted (err=%v)", mac, err)
				}
			}
		}
	})
}
