package shield

import (
	"errors"
	"fmt"
	"sync"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/engine"
	"shef/internal/crypto/hmacx"
	"shef/internal/crypto/kdf"
	"shef/internal/crypto/pmacx"
	"shef/internal/crypto/sha256x"
)

// sealer is the chunk cryptography of one region: key derivation, IVs, and
// the encrypt-then-MAC chunk format. Both the on-FPGA engine set and the
// Data Owner's host library use it, which is what lets the Data Owner
// pre-encrypt inputs into exactly the layout the Shield expects and
// decrypt results coming back (paper §3 step 11).
//
// The sealer splits its crypto in two: engine (aesx.Engine) is the *cycle
// model* of the FPGA engine pool — simulated cost only, identical on
// every host — while block and the per-scratch HMAC/PMAC states are the
// *functional* implementations that actually move bytes, selected between
// scalar reference and hardware-backed stdlib code by
// internal/crypto/engine. Ciphertext and tags are bit-identical whichever
// functional engine runs (FuzzEngineParity).
type sealer struct {
	cfg      RegionConfig
	regionID uint32
	engine   *aesx.Engine
	block    aesx.Block
	shaNew   func() hmacx.Hash
	macKey   []byte
	pmac     *pmacx.MAC

	// scratch pools the per-chunk working state for the convenience
	// entry points (sealChunkInto/openChunkInto); the engine set's hot
	// path holds dedicated per-worker scratches instead, because a GC
	// pass may drain a sync.Pool mid-stream and reintroduce allocations.
	scratch sync.Pool
}

// chunkCodec is an engine set's per-chunk transform and its cycle model.
// The sealer is the Shield's codec; plainCodec (baseline.go) is the
// unsecured baseline's. Everything else about an engine set — the line
// buffer, LRU, prefetcher, write-back, stream windows and DRAM charges —
// is shared, so a shielded and a bare run differ exactly in what the codec
// does and reports.
type chunkCodec interface {
	// newScratch builds one worker's working state.
	newScratch() *sealScratch
	// sealChunkWith turns one chunk of plaintext into ct and its tag.
	sealChunkWith(sc *sealScratch, ct, tagOut []byte, chunk int, counter uint32, plain []byte)
	// openChunkWith verifies ct against tag and recovers the plaintext.
	openChunkWith(sc *sealScratch, dst []byte, chunk int, counter uint32, ct, tag []byte) error
	// tagSize is the tag bytes stored per chunk.
	tagSize() int
	// cryptoCycles is one chunk's crypto-stage time on the chunked path.
	cryptoCycles() uint64
	// cryptoStages are the engine-pool and serial-MAC stage times of a
	// pipeline window of n chunks.
	cryptoStages(n int) (poolStage, hmacStage uint64)
}

// sealScratch is one in-flight chunk's working state: the MAC message
// buffer, the CTR counter-block batch, and the state of the region's MAC:
// a reusable HMAC state (persistent key pads and hash streams) or the
// PMAC block batch.
type sealScratch struct {
	msg  []byte
	ctr  aesx.CTRStream
	hmac *hmacx.State
	pmac *pmacx.Scratch
}

func newSealer(cfg RegionConfig, regionID uint32, dek []byte, kind engine.Kind) (*sealer, error) {
	encKey := kdf.Derive([]byte("shef/region-enc"), dek, []byte(cfg.Name), int(cfg.KeySize))
	macKey := kdf.Derive([]byte("shef/region-mac"), dek, []byte(cfg.Name), 32)
	eng, err := aesx.NewEngine(encKey, cfg.SBox)
	if err != nil {
		return nil, fmt.Errorf("shield: region %q: %w", cfg.Name, err)
	}
	blk, err := engine.NewAES(encKey, kind)
	if err != nil {
		return nil, fmt.Errorf("shield: region %q: %w", cfg.Name, err)
	}
	s := &sealer{
		cfg:      cfg,
		regionID: regionID,
		engine:   eng,
		block:    blk,
		shaNew:   engine.NewSHA(kind),
		macKey:   macKey,
	}
	s.scratch.New = func() any { return s.newScratch() }
	if cfg.MAC == PMAC {
		macBlock, err := engine.NewAES(macKey[:16], kind)
		if err != nil {
			return nil, err
		}
		s.pmac = pmacx.NewWithBlock(macBlock)
	}
	return s, nil
}

// newScratch builds one worker's chunk-crypto working state.
func (s *sealer) newScratch() *sealScratch {
	sc := &sealScratch{msg: make([]byte, 0, 12+s.cfg.ChunkSize)}
	if s.cfg.MAC == HMAC {
		sc.hmac = hmacx.NewState(s.macKey, s.shaNew)
	} else {
		sc.pmac = new(pmacx.Scratch)
	}
	return sc
}

func (s *sealer) tagSize() int { return TagSize }

// ctrBlocksPerChunk is the number of AES-CTR keystream blocks per chunk.
func (s *sealer) ctrBlocksPerChunk() int {
	return (s.cfg.ChunkSize + aesx.BlockSize - 1) / aesx.BlockSize
}

// pmacBlocksPerChunk is the number of PMAC block computations per chunk
// (one per data block plus the tag block), all served by the AES pool.
func (s *sealer) pmacBlocksPerChunk() int {
	return s.ctrBlocksPerChunk() + 1
}

// poolCycles is the AES engine pool's time to serve n blocks: waves of
// AESEngines blocks each at the engine's per-block latency.
func (s *sealer) poolCycles(blocks int) uint64 {
	waves := uint64((blocks + s.cfg.AESEngines - 1) / s.cfg.AESEngines)
	return waves * s.engine.CyclesPerBlock()
}

// hmacCyclesPerChunk is the serial HMAC core's time for one chunk: ipad
// block + message blocks + outer pass, one strictly serial stream.
func (s *sealer) hmacCyclesPerChunk() uint64 {
	return uint64(3+(s.cfg.ChunkSize+sha256x.BlockSize-1)/sha256x.BlockSize) * hmacEngineCyclesPerBlock
}

// cryptoCycles is the engine-set crypto time for one chunk transfer. The
// AES pool serves the CTR blocks plus, under PMAC, the MAC blocks; an HMAC
// engine runs serially in parallel with decryption ("the engine set
// decrypts and authenticates the returned ciphertext in parallel",
// paper §5.2.2).
func (s *sealer) cryptoCycles() uint64 {
	aesBlocks := s.ctrBlocksPerChunk()
	if s.cfg.MAC == PMAC {
		aesBlocks += s.pmacBlocksPerChunk()
	}
	aesCycles := s.poolCycles(aesBlocks)
	if s.cfg.MAC == PMAC {
		return aesCycles
	}
	if hmacCycles := s.hmacCyclesPerChunk(); hmacCycles > aesCycles {
		return hmacCycles
	}
	return aesCycles
}

// cryptoStages returns the engine-pool occupancy and serial-HMAC stage
// times for a window of n chunks crossing the crypto pipeline.
func (s *sealer) cryptoStages(n int) (poolStage, hmacStage uint64) {
	if n <= 0 {
		return 0, 0
	}
	pool := n * s.ctrBlocksPerChunk()
	if s.cfg.MAC == PMAC {
		pool += n * s.pmacBlocksPerChunk()
	} else {
		hmacStage = uint64(n) * s.hmacCyclesPerChunk()
	}
	return s.poolCycles(pool), hmacStage
}

// hmacEngineCyclesPerBlock is the Shield HMAC core's cost per 64-byte SHA
// block. The core is modestly unrolled (≈1.2 B/cycle) but strictly serial
// within a stream — which is why SDP saturates on it until PMAC replaces
// it (paper §6.2.3). Calibrated jointly with perf.Default (DESIGN.md §4).
const hmacEngineCyclesPerBlock = 54

// iv derives the CTR IV for a chunk at a write epoch. Counter zero is the
// initial (preload) epoch; regions without freshness stay at zero.
func (s *sealer) iv(chunk int, counter uint32) [aesx.IVSize]byte {
	version := uint32(0)
	if s.cfg.Freshness {
		version = counter
	}
	return aesx.ChunkIV(s.regionID, uint32(chunk), version)
}

// macInputInto assembles the authenticated message into dst[:0]: region ||
// chunk index || counter (if fresh) || ciphertext. Binding the address
// defeats splicing; binding the counter defeats replay (paper
// §5.2.1-5.2.2).
func (s *sealer) macInputInto(dst []byte, chunk int, counter uint32, ct []byte) []byte {
	var hdr [12]byte
	be32(hdr[0:], s.regionID)
	be32(hdr[4:], uint32(chunk))
	if s.cfg.Freshness {
		be32(hdr[8:], counter)
	}
	return append(append(dst, hdr[:]...), ct...)
}

func be32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// sealChunk encrypts plaintext and computes its tag for a write epoch.
func (s *sealer) sealChunk(chunk int, counter uint32, plain []byte) (ct []byte, tag [TagSize]byte) {
	ct = make([]byte, len(plain))
	s.sealChunkInto(ct, &tag, chunk, counter, plain)
	return ct, tag
}

// sealChunkInto encrypts plain into ct (same length) and writes the tag,
// using pooled scratch. Safe for concurrent use: the streamed write path
// fans consecutive chunks out across the engine pool.
func (s *sealer) sealChunkInto(ct []byte, tag *[TagSize]byte, chunk int, counter uint32, plain []byte) {
	sc := s.scratch.Get().(*sealScratch)
	s.sealChunkWith(sc, ct, tag[:], chunk, counter, plain)
	s.scratch.Put(sc)
}

// sealChunkWith is the allocation-free core of sealChunkInto: the caller
// owns sc exclusively for the duration of the call. tagOut receives the
// TagSize-byte tag (typically a slice of the window's staging buffer).
//
//shef:hotpath
func (s *sealer) sealChunkWith(sc *sealScratch, ct, tagOut []byte, chunk int, counter uint32, plain []byte) {
	sc.ctr.XORKeyStream(s.block, s.iv(chunk, counter), ct, plain)
	msg := s.macInputInto(sc.msg[:0], chunk, counter, ct)
	var tag [TagSize]byte
	if s.cfg.MAC == PMAC {
		tag = s.pmac.SumWith(sc.pmac, msg)
	} else {
		sc.hmac.Tag(msg, &tag)
	}
	copy(tagOut, tag[:])
	sc.msg = msg[:0]
}

// openChunk verifies and decrypts a chunk at a write epoch.
func (s *sealer) openChunk(chunk int, counter uint32, ct []byte, tag [TagSize]byte) ([]byte, error) {
	plain := make([]byte, len(ct))
	if err := s.openChunkInto(plain, chunk, counter, ct, tag); err != nil {
		return nil, err
	}
	return plain, nil
}

// openChunkInto verifies ct and decrypts it into dst (same length), using
// pooled scratch. Safe for concurrent use by the stream pipeline's
// decrypt/verify fan-out.
func (s *sealer) openChunkInto(dst []byte, chunk int, counter uint32, ct []byte, tag [TagSize]byte) error {
	sc := s.scratch.Get().(*sealScratch)
	err := s.openChunkWith(sc, dst, chunk, counter, ct, tag[:])
	s.scratch.Put(sc)
	return err
}

// openChunkWith is the allocation-free core of openChunkInto: the caller
// owns sc exclusively for the duration of the call. tag is the
// TagSize-byte stored tag (typically a slice of the window's staging
// buffer).
//
//shef:hotpath
func (s *sealer) openChunkWith(sc *sealScratch, dst []byte, chunk int, counter uint32, ct, tag []byte) error {
	msg := s.macInputInto(sc.msg[:0], chunk, counter, ct)
	var t [TagSize]byte
	copy(t[:], tag)
	ok := false
	if s.cfg.MAC == PMAC {
		ok = s.pmac.VerifyWith(sc.pmac, msg, t)
	} else {
		ok = sc.hmac.Verify(msg, t)
	}
	sc.msg = msg[:0]
	if !ok {
		//shef:ignore tamper path: the latch trips and the op fails, allocation cost is irrelevant
		return &IntegrityError{Region: s.cfg.Name, Chunk: chunk}
	}
	sc.ctr.XORKeyStream(s.block, s.iv(chunk, counter), dst, ct)
	return nil
}

// RegionLayout describes where a region's ciphertext and tags live in
// device DRAM, so the (untrusted) host program can DMA sealed data in and
// out without understanding it.
type RegionLayout struct {
	Name     string
	RegionID uint32
	DataBase uint64 // ciphertext, identity-mapped at the region base
	DataSize uint64
	TagBase  uint64
	TagSize  uint64
	Chunk    int
}

// Layout reports the DRAM layout of a configured region.
func (s *Shield) Layout(region string) (RegionLayout, error) {
	tagOff := s.tagBase
	for i, rc := range s.cfg.Regions {
		if rc.Name == region {
			return RegionLayout{
				Name:     rc.Name,
				RegionID: uint32(i + 1),
				DataBase: rc.Base,
				DataSize: rc.Size,
				TagBase:  tagOff,
				TagSize:  uint64(rc.Chunks() * TagSize),
				Chunk:    rc.ChunkSize,
			}, nil
		}
		tagOff += uint64(rc.Chunks() * TagSize)
	}
	return RegionLayout{}, fmt.Errorf("shield: unknown region %q", region)
}

// SealRegionData encrypts a full region image in the Shield's chunk format
// at epoch zero. The Data Owner runs this in a secure location before
// handing the ciphertext and tags to the untrusted host program for DMA.
func SealRegionData(cfg RegionConfig, regionID uint32, dek, data []byte) (ct, tags []byte, err error) {
	if uint64(len(data)) != cfg.Size {
		return nil, nil, fmt.Errorf("shield: region %q image is %d bytes, want %d", cfg.Name, len(data), cfg.Size)
	}
	s, err := newSealer(cfg, regionID, dek, engine.Auto)
	if err != nil {
		return nil, nil, err
	}
	ct = make([]byte, 0, len(data))
	tags = make([]byte, 0, cfg.Chunks()*TagSize)
	for c := 0; c < cfg.Chunks(); c++ {
		chunkCT, tag := s.sealChunk(c, 0, data[c*cfg.ChunkSize:(c+1)*cfg.ChunkSize])
		ct = append(ct, chunkCT...)
		tags = append(tags, tag[:]...)
	}
	return ct, tags, nil
}

// OpenRegionData verifies and decrypts a full region image DMAed out of
// device DRAM. counters supplies the per-chunk write epochs for
// freshness-protected regions (from Shield.CounterSnapshot, relayed over
// an authenticated channel); nil means epoch zero everywhere.
func OpenRegionData(cfg RegionConfig, regionID uint32, dek, ct, tags []byte, counters []uint32) ([]byte, error) {
	if uint64(len(ct)) != cfg.Size {
		return nil, fmt.Errorf("shield: ciphertext is %d bytes, want %d", len(ct), cfg.Size)
	}
	if len(tags) != cfg.Chunks()*TagSize {
		return nil, errors.New("shield: tag array has wrong size")
	}
	if counters != nil && len(counters) != cfg.Chunks() {
		return nil, errors.New("shield: counter array has wrong size")
	}
	s, err := newSealer(cfg, regionID, dek, engine.Auto)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(ct))
	for c := 0; c < cfg.Chunks(); c++ {
		var tag [TagSize]byte
		copy(tag[:], tags[c*TagSize:])
		ctr := uint32(0)
		if counters != nil {
			ctr = counters[c]
		}
		plain, err := s.openChunk(c, ctr, ct[c*cfg.ChunkSize:(c+1)*cfg.ChunkSize], tag)
		if err != nil {
			return nil, err
		}
		out = append(out, plain...)
	}
	return out, nil
}

// MarkPreloaded tells the Shield that the host has DMAed sealed data into
// a region (at epoch zero): the valid bits are set so reads fetch and
// verify the preloaded ciphertext instead of serving zeros.
func (s *Shield) MarkPreloaded(region string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.namedSet(s.cfg.Tenant, region)
	if err != nil {
		return err
	}
	set.markPreloaded()
	return nil
}

// MarkPreloadedRange is MarkPreloaded for a partial DMA: only the chunks
// overlapping bytes [off, off+n) of the region become valid, and any
// resident clean lines for those chunks are dropped (their plaintext
// predates the DMA). Serving paths that stage variable-sized payloads
// through a large scratch region use it so one request's DMA does not
// vouch for — or invalidate — the rest of the region.
func (s *Shield) MarkPreloadedRange(region string, off, n uint64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.namedSet(s.cfg.Tenant, region)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if off+n > set.cfg.Size {
		return fmt.Errorf("shield: preload range [%#x,+%d) outside region %q", off, n, region)
	}
	cs := uint64(set.cfg.ChunkSize)
	set.markPreloadedChunks(int(off/cs), int((off+n+cs-1)/cs))
	return nil
}

// RegionSealer is the Data Owner's persistent chunk-cryptography handle
// for one region: the same key schedule, MAC state, and scratch reused
// across calls, instead of SealRegionData/OpenRegionData's
// rebuild-per-call. A RegionSealer is NOT safe for concurrent use — it
// owns one scratch; callers wanting parallelism hold one per goroutine.
type RegionSealer struct {
	s  *sealer
	sc *sealScratch
}

// NewRegionSealer builds a persistent sealer for a region. cfg and
// regionID must match the Shield-side region (see Layout for the
// region's ID and chunk geometry).
func NewRegionSealer(cfg RegionConfig, regionID uint32, dek []byte) (*RegionSealer, error) {
	s, err := newSealer(cfg, regionID, dek, engine.Auto)
	if err != nil {
		return nil, err
	}
	return &RegionSealer{s: s, sc: s.newScratch()}, nil
}

// ChunkSize returns the region's chunk size in bytes.
func (rs *RegionSealer) ChunkSize() int { return rs.s.cfg.ChunkSize }

// SealRange seals plain — whose length must be a whole number of chunks
// — as chunks [chunk0, chunk0+k) at epoch counter, appending ciphertext
// and tags into ct and tags (chunk i's tag at i*TagSize).
func (rs *RegionSealer) SealRange(chunk0 int, counter uint32, ct, tags, plain []byte) error {
	cs := rs.s.cfg.ChunkSize
	if len(plain)%cs != 0 || len(plain) == 0 {
		return fmt.Errorf("shield: seal range of %d bytes is not whole %d-byte chunks", len(plain), cs)
	}
	k := len(plain) / cs
	if len(ct) < len(plain) || len(tags) < k*TagSize {
		return errors.New("shield: seal range output buffers too short")
	}
	for i := 0; i < k; i++ {
		rs.s.sealChunkWith(rs.sc, ct[i*cs:(i+1)*cs], tags[i*TagSize:(i+1)*TagSize],
			chunk0+i, counter, plain[i*cs:(i+1)*cs])
	}
	return nil
}

// OpenRange verifies and decrypts chunks [chunk0, chunk0+k) at epoch
// counter from ct/tags into dst (k = len(dst)/ChunkSize).
func (rs *RegionSealer) OpenRange(chunk0 int, counter uint32, dst, ct, tags []byte) error {
	cs := rs.s.cfg.ChunkSize
	if len(dst)%cs != 0 || len(dst) == 0 {
		return fmt.Errorf("shield: open range of %d bytes is not whole %d-byte chunks", len(dst), cs)
	}
	k := len(dst) / cs
	if len(ct) < len(dst) || len(tags) < k*TagSize {
		return errors.New("shield: open range input buffers too short")
	}
	for i := 0; i < k; i++ {
		if err := rs.s.openChunkWith(rs.sc, dst[i*cs:(i+1)*cs], chunk0+i, counter,
			ct[i*cs:(i+1)*cs], tags[i*TagSize:(i+1)*TagSize]); err != nil {
			return err
		}
	}
	return nil
}

// CounterSnapshot exports a region's freshness counters, authenticated
// under the session's register MAC key so the untrusted host cannot forge
// them in transit to the Data Owner.
type CounterSnapshot struct {
	Region   string
	Counters []uint32
	Tag      [16]byte
}

// CounterSnapshot captures the current counters of a region.
func (s *Shield) CounterSnapshot(region string) (CounterSnapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.namedSet(s.cfg.Tenant, region)
	if err != nil {
		return CounterSnapshot{}, err
	}
	snap := CounterSnapshot{Region: region, Counters: set.counterSnapshot()}
	snap.Tag = s.regs.macSnapshot(region, snap.Counters)
	return snap, nil
}

// VerifyCounterSnapshot checks a snapshot on the Data Owner side, given
// the register file keys derived from the same DEK.
func (rf *RegisterFile) VerifyCounterSnapshot(snap CounterSnapshot) bool {
	return rf.macSnapshot(snap.Region, snap.Counters) == snap.Tag
}

func (rf *RegisterFile) macSnapshot(region string, counters []uint32) [16]byte {
	msg := make([]byte, 0, len(region)+4*len(counters))
	msg = append(msg, region...)
	for _, c := range counters {
		var b [4]byte
		be32(b[:], c)
		msg = append(msg, b[:]...)
	}
	return hmacx.Tag(rf.macKey, append([]byte("counter-snapshot:"), msg...))
}
