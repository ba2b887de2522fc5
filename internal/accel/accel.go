// Package accel provides the accelerator framework and the six workloads
// the paper evaluates (§6.2): vector add and matrix multiply
// (microbenchmarks, Figure 5), a convolution layer, Rosetta digit
// recognition, affine transformation, DNNWeaver-style LeNet inference, and
// a Bitcoin miner (Figure 6 / Table 3).
//
// Accelerators are functional: they really compute over the bytes behind
// their AXI ports, so every workload doubles as an end-to-end test of the
// Shield's transparency. Performance comes from the cycle model: each
// workload accounts its datapath compute, and the harness combines it with
// the memory-path time reported by the Shield or the bare Shell.
package accel

import (
	"fmt"
	"math/rand"

	"shef/internal/axi"
	"shef/internal/crypto/aesx"
	"shef/internal/shield"
)

// Ctx is the execution context handed to a running accelerator.
type Ctx struct {
	// Mem is the accelerator's AXI4 view of device memory: the Shield's
	// plaintext interface when shielded, the Shell's port when bare.
	Mem axi.MemoryPort
	// Regs is the AXI4-Lite register file (nil for bare runs without one).
	Regs axi.RegisterPort

	computeCycles uint64
}

// Compute accounts datapath busy-cycles (MAC arrays, hash cores, ...).
// Compute overlaps memory traffic: the harness takes the max.
func (c *Ctx) Compute(cycles uint64) { c.computeCycles += cycles }

// ReadStream reads a bulk transfer through the port's pipelined streaming
// path when it has one (the Shield's burst engine, or the same engine on
// the bare baseline), falling back to a plain burst otherwise. Workloads use
// it for multi-chunk sequential transfers.
func (c *Ctx) ReadStream(addr uint64, buf []byte) error {
	_, err := axi.ReadAuto(c.Mem, addr, buf)
	return err
}

// WriteStream writes a bulk transfer through the port's streaming path.
func (c *Ctx) WriteStream(addr uint64, data []byte) error {
	_, err := axi.WriteAuto(c.Mem, addr, data)
	return err
}

// ComputeCycles reports accumulated datapath time.
func (c *Ctx) ComputeCycles() uint64 { return c.computeCycles }

// Variant selects the Shield engine flavour a workload is compiled with —
// the x-axis of Figure 6.
type Variant struct {
	KeySize aesx.KeySize
	SBox    aesx.SBoxParallelism
	// PMAC swaps the HMAC engines for PMAC (the DNNWeaver optimisation,
	// §6.2.4, and SDP configs C-E, §6.2.3).
	PMAC bool
}

func (v Variant) String() string {
	s := fmt.Sprintf("%s/%s", v.KeySize, v.SBox)
	if v.PMAC {
		s += "-PMAC"
	}
	return s
}

// MAC returns the MAC kind the variant selects.
func (v Variant) MAC() shield.MACKind {
	if v.PMAC {
		return shield.PMAC
	}
	return shield.HMAC
}

// The four engine configurations of Figure 6, plus the PMAC variant.
var (
	V128x16     = Variant{KeySize: aesx.AES128, SBox: aesx.SBox16x}
	V256x16     = Variant{KeySize: aesx.AES256, SBox: aesx.SBox16x}
	V128x4      = Variant{KeySize: aesx.AES128, SBox: aesx.SBox4x}
	V256x4      = Variant{KeySize: aesx.AES256, SBox: aesx.SBox4x}
	V128x16PMAC = Variant{KeySize: aesx.AES128, SBox: aesx.SBox16x, PMAC: true}
)

// Figure6Variants lists the AES engine configurations of Figure 6.
var Figure6Variants = []Variant{V128x16, V256x16, V128x4, V256x4}

// Workload is one benchmark accelerator.
type Workload interface {
	// Name is the registry key ("vecadd", "conv", ...).
	Name() string
	// ShieldConfig returns the paper's per-workload Shield configuration
	// for an engine variant (§6.2.4 describes each).
	ShieldConfig(v Variant) shield.Config
	// Inputs generates the region images the Data Owner provisions.
	Inputs(rng *rand.Rand) map[string][]byte
	// Run executes the accelerator against its context.
	Run(ctx *Ctx) error
	// OutputRegions names the regions holding results.
	OutputRegions() []string
	// Check verifies output images (plaintext, after the Data Owner
	// decrypts them).
	Check(inputs, outputs map[string][]byte) error
}

// Registry maps design names to constructors, parameterised the way a
// bitstream manifest carries options.
var registry = map[string]func(params map[string]string) (Workload, error){}

// Register adds a design factory. Called from init functions.
func Register(name string, f func(params map[string]string) (Workload, error)) {
	if _, dup := registry[name]; dup {
		panic("accel: duplicate design " + name)
	}
	registry[name] = f
}

// New instantiates a registered design.
func New(name string, params map[string]string) (Workload, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("accel: unknown design %q", name)
	}
	return f(params)
}

// Designs lists registered design names.
func Designs() []string {
	var out []string
	for k := range registry {
		out = append(out, k)
	}
	return out
}
