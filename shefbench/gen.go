package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"time"
)

// opKind is one storage request type.
type opKind uint8

const (
	opGet opKind = iota
	opPut
)

// op is one generated request: what to do, to which file, and how long
// after the previous request it is due (used by the open loop only).
type op struct {
	kind opKind
	file int
	gap  time.Duration
}

// mix is the shape of one workload's requests.
type mix struct {
	files   int
	zipf    float64 // key skew exponent (> 1); 0 draws keys uniformly
	putFrac float64
}

// gen draws a workload's requests from one seeded stream. Streams of
// one seed share the file popularity ranking but are otherwise
// independent: stream 0 drives the closed loop, 1+w open-loop worker w,
// and warmStream the set-up warm-up.
type gen struct {
	r    *rand.Rand
	zipf *rand.Zipf
	rank []int // popularity rank → file, so the hot set moves with the seed
	mix  mix
	mean float64 // mean inter-arrival gap in ns; 0 for closed loops
}

const warmStream = 1 << 20

// newGen builds stream of seed for m. rate is the stream's own Poisson
// arrival rate in requests/s; 0 leaves gaps at zero.
func newGen(seed, stream uint64, m mix, rate float64) *gen {
	g := &gen{
		r:    rand.New(rand.NewPCG(seed, stream)),
		rank: rand.New(rand.NewPCG(seed, ^uint64(0))).Perm(max(m.files, 1)),
		mix:  m,
	}
	if m.zipf > 1 && m.files > 1 {
		g.zipf = rand.NewZipf(g.r, m.zipf, 1, uint64(m.files-1))
	}
	if rate > 0 {
		g.mean = 1e9 / rate
	}
	return g
}

func (g *gen) next() op {
	var o op
	if g.mix.files > 0 {
		rank := 0
		if g.zipf != nil {
			rank = int(g.zipf.Uint64())
		} else {
			rank = g.r.IntN(g.mix.files)
		}
		o.file = g.rank[rank]
		if g.r.Float64() < g.mix.putFrac {
			o.kind = opPut
		}
	}
	if g.mean > 0 {
		o.gap = time.Duration(g.r.ExpFloat64() * g.mean)
	}
	return o
}

// Every stored payload begins with a stamp naming the file and version
// it holds and a checksum of the rest, so a Get can be checked without
// keeping a copy of what was written:
//
//	magic u32 | file u32 | version u64 | body crc32c u32 | reserved u32
const (
	stampMagic = 0x53684546
	stampBytes = 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fillPayload writes version of file into dst: the stamp, then a body
// that is a pure function of (seed, file, version).
func fillPayload(dst []byte, seed uint64, file int, version uint64) {
	body := dst[stampBytes:]
	fillRandom(body, seed^uint64(file)<<32^version*0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint32(dst[0:], stampMagic)
	binary.LittleEndian.PutUint32(dst[4:], uint32(file))
	binary.LittleEndian.PutUint64(dst[8:], version)
	binary.LittleEndian.PutUint32(dst[16:], crc32.Checksum(body, castagnoli))
	binary.LittleEndian.PutUint32(dst[20:], 0)
}

// fillRandom fills dst with the splitmix64 stream that starts at x.
func fillRandom(dst []byte, x uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		x += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(dst[i:], splitmix(x))
	}
	for ; i < len(dst); i++ {
		x += 0x9e3779b97f4a7c15
		dst[i] = byte(splitmix(x))
	}
}

func splitmix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// checkPayload verifies that p is a whole, self-consistent payload of
// file and returns the version it holds.
func checkPayload(p []byte, file, size int) (uint64, error) {
	if len(p) != size {
		return 0, fmt.Errorf("file %d: got %d bytes, want %d", file, len(p), size)
	}
	if binary.LittleEndian.Uint32(p[0:]) != stampMagic {
		return 0, fmt.Errorf("file %d: payload has no stamp", file)
	}
	if got := int(binary.LittleEndian.Uint32(p[4:])); got != file {
		return 0, fmt.Errorf("file %d: payload names file %d", file, got)
	}
	if crc32.Checksum(p[stampBytes:], castagnoli) != binary.LittleEndian.Uint32(p[16:]) {
		return 0, fmt.Errorf("file %d: payload fails its checksum", file)
	}
	return binary.LittleEndian.Uint64(p[8:]), nil
}
