// Package engine selects between the repository's scalar reference crypto
// (internal/crypto/{aesx,sha256x}) and the hardware-backed engines for the
// *functional* data path: on amd64 with AES-NI, a multi-block AES kernel
// that keeps eight blocks in flight; otherwise (and under the purego build
// tag) the stdlib crypto/aes; and crypto/sha256, which uses SHA-NI when
// the CPU has it.
//
// The split matters because the Shield plays two roles at once: it is a
// cycle-accurate model of the paper's FPGA engine sets (where cost comes
// from aesx.Engine and the MAC cycle models, and must stay bit-identical
// across hosts), and it is a real serving data path whose MB/s is limited
// by how fast this process can actually run AES-CTR and HMAC. Engine
// selection swaps only the second role: ciphertext, tags, and simulated
// cycles are identical whichever engine runs, which differential tests
// (FuzzEngineParity) enforce.
//
// Selection follows the runtime-adaptive pattern: detect CPU features,
// then run a sub-millisecond micro-benchmark at first use and keep
// whichever implementation is actually faster on this host. The
// SHEF_CRYPTO_ENGINE environment variable ("scalar", "hardware", "auto")
// overrides the choice, and perf.Params.CryptoEngine forces it per Shield
// so tests pin both paths.
package engine

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"sync"
	"time"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/hmacx"
	"shef/internal/crypto/sha256x"
)

// EnvVar forces the engine choice process-wide: "scalar", "hardware", or
// "auto" (the default micro-benchmark selection). CI's scalar matrix leg
// sets it so the reference path stays green under -race.
const EnvVar = "SHEF_CRYPTO_ENGINE"

// Kind names an engine choice.
type Kind int

const (
	// Auto defers to Select(): environment override if set, otherwise the
	// micro-benchmark winner.
	Auto Kind = iota
	// Scalar forces the repository's from-scratch reference
	// implementations.
	Scalar
	// Hardware forces the hardware-backed engines: the AES-NI kernel
	// where it can run, else the stdlib engines (AES-NI/SHA-NI
	// accelerated when the CPU supports them).
	Hardware
)

func (k Kind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case Hardware:
		return "hardware"
	default:
		return "auto"
	}
}

// ParseKind maps a configuration string to a Kind. The empty string is
// Auto, so an unset perf.Params.CryptoEngine keeps the adaptive default.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "auto":
		return Auto, nil
	case "scalar":
		return Scalar, nil
	case "hardware", "hw":
		return Hardware, nil
	}
	return Auto, fmt.Errorf("engine: unknown crypto engine %q (want auto, scalar, or hardware)", s)
}

// Selection is the outcome of engine choice, kept for log attribution.
type Selection struct {
	Features Features
	// AES and SHA are the resolved kinds (never Auto).
	AES, SHA Kind
	// AESKernel names the code behind AES when it is Hardware:
	// "aesni-x8" for the multi-block AES-NI kernel, "stdlib" for
	// crypto/aes.
	AESKernel string
	// Forced reports that SHEF_CRYPTO_ENGINE pinned the choice, skipping
	// the micro-benchmark (the *Ns fields are zero in that case).
	Forced bool
	// Micro-benchmark results: nanoseconds per 1KiB of work for each
	// candidate, minimum over repetitions.
	AESScalarNs, AESHardwareNs int64
	SHAScalarNs, SHAHardwareNs int64
}

// String renders the one-line startup log ShEF daemons emit so perf
// reports are attributable to the engine that produced them.
func (s Selection) String() string {
	src := "micro-bench"
	if s.Forced {
		src = "env " + EnvVar
	}
	aes := s.AES.String()
	if s.AES == Hardware && s.AESKernel != "" {
		aes += "(" + s.AESKernel + ")"
	}
	line := fmt.Sprintf("crypto engines: aes=%s sha=%s (aesni=%v sha_ni=%v, via %s",
		aes, s.SHA, s.Features.AESNI, s.Features.SHANI, src)
	if !s.Forced {
		line += fmt.Sprintf("; aes %dns vs %dns, sha %dns vs %dns per KiB scalar/hw",
			s.AESScalarNs, s.AESHardwareNs, s.SHAScalarNs, s.SHAHardwareNs)
	}
	return line + ")"
}

var (
	selectOnce sync.Once
	selection  Selection
)

// Select resolves the process-wide Auto choice. The first call runs the
// detection and micro-benchmark (well under a millisecond); later calls
// return the cached Selection.
func Select() Selection {
	selectOnce.Do(func() { selection = pick(os.Getenv(EnvVar)) })
	return selection
}

// pick computes a Selection for the given environment override. Split out
// of Select so tests can exercise every branch without the cache.
func pick(env string) Selection {
	s := Selection{Features: Detect(), AESKernel: hardwareAESName()}
	if k, err := ParseKind(env); err == nil && k != Auto {
		s.AES, s.SHA, s.Forced = k, k, true
		return s
	}
	s.AESScalarNs, s.AESHardwareNs = benchAES()
	s.SHAScalarNs, s.SHAHardwareNs = benchSHA()
	s.AES = Scalar
	if s.AESHardwareNs < s.AESScalarNs {
		s.AES = Hardware
	}
	s.SHA = Scalar
	if s.SHAHardwareNs < s.SHAScalarNs {
		s.SHA = Hardware
	}
	return s
}

// hardwareAESName names the AES code NewAES(key, Hardware) runs here.
func hardwareAESName() string {
	if haveAESKernel() {
		return aesKernelName
	}
	return "stdlib"
}

// benchReps and benchKiB size the micro-benchmark: 3 repetitions over
// 1KiB keep the total comfortably under a millisecond even on a machine
// with neither extension, while 64 AES blocks / 16 SHA blocks are enough
// to swamp call overhead. AES is timed through EncryptBlocks, the entry
// point the CTR and PMAC data path uses.
const (
	benchReps = 3
	benchKiB  = 1024
)

func minNs(f func()) int64 {
	best := int64(1<<63 - 1)
	for r := 0; r < benchReps; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Nanoseconds(); d < best {
			best = d
		}
	}
	if best < 1 {
		best = 1
	}
	return best
}

func benchAES() (scalarNs, hwNs int64) {
	var key [16]byte
	for i := range key {
		key[i] = byte(i*7 + 1)
	}
	buf := make([]byte, benchKiB)
	sc, err := NewAES(key[:], Scalar)
	if err != nil {
		return 1, 1
	}
	hw, err := NewAES(key[:], Hardware)
	if err != nil {
		return 1, 1
	}
	run := func(b aesx.Block) func() {
		return func() { b.EncryptBlocks(buf, buf) }
	}
	return minNs(run(sc)), minNs(run(hw))
}

func benchSHA() (scalarNs, hwNs int64) {
	var buf [benchKiB]byte
	for i := range buf {
		buf[i] = byte(i)
	}
	var out [sha256x.Size]byte
	scalarNs = minNs(func() {
		var st sha256x.State
		st.Reset()
		st.Write(buf[:])
		st.SumInto(&out)
	})
	hw := sha256.New()
	hwNs = minNs(func() {
		hw.Reset()
		hw.Write(buf[:])
		hw.Sum(out[:0])
	})
	return scalarNs, hwNs
}

// stdBlock adapts the stdlib AES cipher to the aesx.Block contract, one
// block at a time.
type stdBlock struct{ b cipher.Block }

func (s stdBlock) EncryptBlocks(dst, src []byte) {
	n := aesx.BlockCount(dst, src)
	for off := 0; off < n*aesx.BlockSize; off += aesx.BlockSize {
		s.b.Encrypt(dst[off:off+aesx.BlockSize], src[off:off+aesx.BlockSize])
	}
}

// ResolveAES returns the concrete AES engine kind for k. Explicit kinds
// pass through untouched (so forcing a path in tests never consults the
// cached Selection); only Auto triggers Select.
func ResolveAES(k Kind) Kind {
	if k == Auto {
		return Select().AES
	}
	return k
}

// ResolveSHA returns the concrete SHA-256 engine kind for k.
func ResolveSHA(k Kind) Kind {
	if k == Auto {
		return Select().SHA
	}
	return k
}

// NewAES builds a block cipher for the key under the chosen engine. The
// returned Block produces ciphertext bit-identical to aesx.NewCipher
// whichever engine backs it. Hardware means the AES-NI kernel over the
// cached aesx key schedule where the CPU and build allow it, else the
// stdlib crypto/aes.
func NewAES(key []byte, kind Kind) (aesx.Block, error) {
	hw := ResolveAES(kind) == Hardware
	if hw && !haveAESKernel() {
		b, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		return stdBlock{b}, nil
	}
	c, err := aesx.NewCipher(key)
	if err != nil {
		return nil, err
	}
	if hw {
		return newAESKernel(c), nil
	}
	return c, nil
}

// NewSHA returns a constructor of incremental SHA-256 states under the
// chosen engine, in the shape hmacx.NewState consumes. The stdlib-backed
// state finalises via Sum into caller scratch, so tagging through it
// allocates nothing per message.
func NewSHA(kind Kind) func() hmacx.Hash {
	if ResolveSHA(kind) == Hardware {
		return func() hmacx.Hash { return &stdSHA{h: sha256.New()} }
	}
	return func() hmacx.Hash { return sha256x.New() }
}

// stdSHA adapts the stdlib SHA-256 to the hmacx.Hash contract.
type stdSHA struct{ h hash.Hash }

func (s *stdSHA) Reset()                          { s.h.Reset() }
func (s *stdSHA) Write(p []byte) (int, error)     { return s.h.Write(p) }
func (s *stdSHA) SumInto(out *[sha256x.Size]byte) { s.h.Sum(out[:0]) }
