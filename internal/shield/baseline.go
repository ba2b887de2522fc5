package shield

import (
	"fmt"
	"sync/atomic"

	"shef/internal/axi"
	"shef/internal/perf"
)

// plainCodec is the identity chunk codec of the unsecured baseline: chunks
// move unchanged, with no tags and no crypto cycles.
type plainCodec struct{}

func (plainCodec) newScratch() *sealScratch { return new(sealScratch) }

func (plainCodec) sealChunkWith(_ *sealScratch, ct, _ []byte, _ int, _ uint32, plain []byte) {
	copy(ct, plain)
}

func (plainCodec) openChunkWith(_ *sealScratch, dst []byte, _ int, _ uint32, ct, _ []byte) error {
	copy(dst, ct)
	return nil
}

func (plainCodec) tagSize() int                      { return 0 }
func (plainCodec) cryptoCycles() uint64              { return 0 }
func (plainCodec) cryptoStages(int) (uint64, uint64) { return 0, 0 }

// Baseline is the unsecured accelerator's memory path, the denominator of
// Figures 5-6: one engine set per configured region — the Shield's own
// line buffer, prefetcher, write-back and stream windows — running the
// identity codec. Comparing the Shield against it isolates the cost of
// security rather than crediting the Shield for its caches.
//
// Against a Shield region, a baseline set stores no tags and charges no
// crypto cycles and no per-chunk issue cost; every chunk is valid from
// the start (the baseline always fetches, it has no zero-fill valid
// bits); and each set's channel share is the number of configured
// regions on its channel. It charges no on-chip memory, starts no worker
// goroutines and does not implement axi.Gatherer.
type Baseline struct {
	sets []*engineSet
}

// NewBaseline builds the baseline over inner for cfg's regions.
func NewBaseline(cfg Config, inner axi.MemoryPort, params perf.Params) (*Baseline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params.ChunkIssueCycles = 0
	shares := make(map[int]*atomic.Int64)
	for _, rc := range cfg.Regions {
		if shares[rc.Channel] == nil {
			shares[rc.Channel] = new(atomic.Int64)
		}
		shares[rc.Channel].Add(1)
	}
	b := &Baseline{}
	for _, rc := range cfg.Regions {
		set := newEngineSet(rc, plainCodec{}, 0, inner, params)
		set.share = shares[rc.Channel]
		set.inlineFan = true
		for i := range set.initialized {
			set.initialized[i] = true
		}
		b.sets = append(b.sets, set)
	}
	return b, nil
}

// setFor routes a burst to the set of the region containing it.
func (b *Baseline) setFor(addr uint64, n int) (*engineSet, error) {
	for _, set := range b.sets {
		if addr >= set.cfg.Base && addr < set.cfg.Base+set.cfg.Size {
			if addr+uint64(n) > set.cfg.Base+set.cfg.Size {
				return nil, fmt.Errorf("shield: baseline burst [%#x,+%d) crosses region %q boundary", addr, n, set.cfg.Name)
			}
			return set, nil
		}
	}
	return nil, fmt.Errorf("shield: baseline access %#x outside configured regions", addr)
}

// ReadBurst implements axi.MemoryPort.
func (b *Baseline) ReadBurst(addr uint64, buf []byte) (uint64, error) {
	set, err := b.setFor(addr, len(buf))
	if err != nil {
		return 0, err
	}
	return set.read(addr, buf)
}

// WriteBurst implements axi.MemoryPort.
func (b *Baseline) WriteBurst(addr uint64, data []byte) (uint64, error) {
	set, err := b.setFor(addr, len(data))
	if err != nil {
		return 0, err
	}
	return set.write(addr, data)
}

// ReadStream implements axi.Streamer through the engine set's pipelined
// stream windows.
func (b *Baseline) ReadStream(addr uint64, buf []byte) (uint64, error) {
	set, err := b.setFor(addr, len(buf))
	if err != nil {
		return 0, err
	}
	return set.readStream(addr, buf)
}

// WriteStream implements axi.Streamer.
func (b *Baseline) WriteStream(addr uint64, data []byte) (uint64, error) {
	set, err := b.setFor(addr, len(data))
	if err != nil {
		return 0, err
	}
	return set.writeStream(addr, data)
}

// Flush writes back every set's dirty lines, in region order.
func (b *Baseline) Flush() error {
	for _, set := range b.sets {
		if err := set.flush(); err != nil {
			return err
		}
	}
	return nil
}

// MemCycles is the baseline's memory-path time, composed exactly as the
// Shield's Report.MemoryCycles composes its engine sets.
func (b *Baseline) MemCycles() uint64 {
	var rep Report
	for _, set := range b.sets {
		rep.Regions = append(rep.Regions, set.stats())
	}
	return rep.MemoryCycles()
}
