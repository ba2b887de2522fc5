package engine

import (
	"os"
	"runtime"
	"strings"
	"sync"
)

// Features reports the CPU's crypto instruction-set extensions: AES-NI
// (or the arm64 AES extension) and SHA-NI (or the arm64 SHA-2 extension).
// AESNI gates the amd64 AES kernel: the hardware engine runs it only when
// the flag is set, and falls back to the stdlib crypto/aes otherwise. The
// flags also let the startup log line attribute a measured speedup to the
// hardware that produced it.
type Features struct {
	AESNI bool
	SHANI bool
}

var (
	detectOnce sync.Once
	detected   Features
)

// Detect probes the CPU's crypto extensions. The probe runs once; later
// calls return the cached result.
func Detect() Features {
	detectOnce.Do(func() { detected = detect() })
	return detected
}

// detect parses /proc/cpuinfo on Linux (the flags/Features line carries
// "aes" and "sha_ni"/"sha2" when the extensions exist). On other systems
// or when the parse fails it reports no features — selection still works,
// because the micro-benchmark, not the flag, makes the final call, and
// the hardware AES engine falls back to the stdlib path.
func detect() Features {
	if runtime.GOOS != "linux" {
		return Features{}
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return Features{}
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "flags") && !strings.HasPrefix(line, "Features") {
			continue
		}
		f := " " + line + " "
		return Features{
			AESNI: strings.Contains(f, " aes "),
			SHANI: strings.Contains(f, " sha_ni ") || strings.Contains(f, " sha2 "),
		}
	}
	return Features{}
}
