//go:build !amd64 || purego

package engine

import "shef/internal/crypto/aesx"

// Without the amd64 kernel the hardware engine is the stdlib adapter.
const aesKernelName = ""

func haveAESKernel() bool { return false }

func newAESKernel(*aesx.Cipher) aesx.Block { panic("engine: no AES kernel in this build") }
