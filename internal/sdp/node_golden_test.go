package sdp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/shield"
)

// goldenModes are the store configurations a Storage Node can run in.
func goldenModes() []struct {
	name string
	cfg  NodeConfig
} {
	base := NodeConfig{
		Slots: 8, SlotBytes: 16 << 10, AuthBlock: 4096,
		Engines: 4, SBox: aesx.SBox16x, MAC: shield.PMAC,
		BufferBytes: 16 << 10,
	}
	wb := base
	wb.WriteBack, wb.ResponseCacheBytes = true, 40<<10
	zoned := base
	zoned.TenantZones, zoned.TenantSlots = true, 2
	zonedWB := zoned
	zonedWB.WriteBack = true
	obl := base
	obl.Oblivious = true
	return []struct {
		name string
		cfg  NodeConfig
	}{
		{"flat-write-through", base},
		{"flat-write-back-respcache", wb},
		{"zoned-write-through", zoned},
		{"zoned-write-back", zonedWB},
		{"oblivious", obl},
	}
}

// goldenNodeTrace runs a seeded 60-op Put/Get/GetSealed/Sync trace on a
// node with a fixed session DEK and returns its simulated footprint:
// every region's stats, the response cache's and the ORAM's counters,
// and a hash of the device memory image. Each file has one owner.
func goldenNodeTrace(t *testing.T, cfg NodeConfig) string {
	t.Helper()
	dek := bytes.Repeat([]byte{0x5a}, 32)
	n, err := NewNode(cfg, dek, LineRateParams())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	users := []string{"alice", "bob", "carol"}
	n.ProvisionUserKeys(map[string][]byte{
		"alice": []byte("alice-key"), "bob": []byte("bob-key"), "carol": []byte("carol-key"),
	})
	sess, err := n.NewTLSSession()
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, cfg.SlotBytes)
	tags := make([]byte, cfg.SlotBytes/cfg.AuthBlock*shield.TagSize)

	rng := rand.New(rand.NewSource(16))
	want := map[string][]byte{}
	var written []string
	for op := 0; op < 60; op++ {
		f := rng.Intn(6) // two files per user
		user, name := users[f%3], fmt.Sprintf("f%d", f)
		switch r := rng.Intn(10); {
		case r < 4 || want[name] == nil:
			p := make([]byte, 1+rng.Intn(cfg.SlotBytes))
			rng.Read(p)
			if err := n.Put(user, name, p); err != nil {
				t.Fatalf("op %d: Put %s/%s: %v", op, user, name, err)
			}
			if want[name] == nil {
				written = append(written, name)
			}
			want[name] = p
		case r < 6:
			got, err := n.Get(user, name)
			if err != nil || !bytes.Equal(got, want[name]) {
				t.Fatalf("op %d: Get %s/%s: %v", op, user, name, err)
			}
		case r < 9:
			size, err := n.GetSealed(user, name, ct, tags)
			if err != nil {
				t.Fatalf("op %d: GetSealed %s/%s: %v", op, user, name, err)
			}
			got, err := sess.Open(nil, ct, tags, size)
			if err != nil || !bytes.Equal(got, want[name]) {
				t.Fatalf("op %d: GetSealed %s/%s opened wrong: %v", op, user, name, err)
			}
		default:
			if err := n.Sync(); err != nil {
				t.Fatalf("op %d: Sync: %v", op, err)
			}
		}
	}

	var b strings.Builder
	rep := n.Report()
	for _, r := range rep.Regions {
		fmt.Fprintf(&b, "%s ch%d hit=%d miss=%d ev=%d wb=%d bwb=%d str=%d win=%d pf=%d pfh=%d busy=%d dram=%d\n",
			r.Name, r.Channel, r.Hits, r.Misses, r.Evictions, r.Writebacks, r.BatchedWritebacks,
			r.Streamed, r.StreamWindows, r.Prefetched, r.PrefetchHits, r.BusyCycles, r.DRAMCycles)
	}
	fmt.Fprintf(&b, "reg=%d init=%d lookup=%d/%d/%d\n", rep.RegisterCycles, rep.InitCycles,
		rep.Lookup.Hits, rep.Lookup.Misses, rep.Lookup.Cycles)
	hits, misses, cycles := n.RespCacheStats()
	fmt.Fprintf(&b, "resp=%d/%d/%d\n", hits, misses, cycles)
	if o := n.ORAM(); o != nil {
		acc, moved, stash := o.Stats()
		fmt.Fprintf(&b, "oram=%d/%d/%d cycles=%d\n", acc, moved, stash, o.Cycles())
	}
	// The device image: the store arena, then everything from the tls
	// region up (tls data and every region's tag shadow).
	h := sha256.New()
	arena, err := n.DRAM().RawRead(storeBase, int(cfg.storeSize()))
	if err != nil {
		t.Fatal(err)
	}
	h.Write(arena)
	tail, err := n.DRAM().RawRead(tlsBase, int(n.DRAM().Size()-tlsBase))
	if err != nil {
		t.Fatal(err)
	}
	h.Write(tail)
	fmt.Fprintf(&b, "dram=%x files=%d", h.Sum(nil)[:12], len(written))
	return b.String()
}

// TestNodeModesGolden pins the simulated behaviour of every store mode
// over one seeded trace: region stats, response-cache and ORAM counters,
// and the device memory image. A refactor of the node's store path must
// leave each of them unchanged.
func TestNodeModesGolden(t *testing.T) {
	golden := map[string]string{
		"flat-write-through": `store ch0 hit=125 miss=104 ev=100 wb=71 bwb=60 str=0 win=0 pf=0 pfh=0 busy=240037 dram=116696
tls ch1 hit=125 miss=71 ev=0 wb=54 bwb=48 str=0 win=0 pf=0 pfh=0 busy=252023 dram=130460
reg=0 init=40000 lookup=82/34/1442
resp=0/0/0
dram=a1b046a96475a7645cea5225 files=6`,
		"flat-write-back-respcache": `store ch0 hit=118 miss=100 ev=96 wb=70 bwb=60 str=0 win=0 pf=0 pfh=0 busy=166802 dram=110408
tls ch1 hit=118 miss=71 ev=0 wb=47 bwb=41 str=0 win=0 pf=0 pfh=0 busy=234814 dram=123204
reg=0 init=40000 lookup=78/32/1358
resp=3/14/508
dram=09d7b764e88b92112d5e655e files=6`,
		"zoned-write-through": `store ch0 hit=42 miss=21 ev=17 wb=22 bwb=17 str=0 win=0 pf=0 pfh=0 busy=125132 dram=33336
store ch0 hit=42 miss=22 ev=18 wb=24 bwb=21 str=0 win=0 pf=0 pfh=0 busy=130593 dram=33316
store ch0 hit=41 miss=11 ev=7 wb=25 bwb=22 str=0 win=0 pf=0 pfh=0 busy=129251 dram=31180
tls ch1 hit=125 miss=71 ev=0 wb=54 bwb=48 str=0 win=0 pf=0 pfh=0 busy=252023 dram=130460
reg=0 init=40000 lookup=82/34/1442
resp=0/0/0
dram=4587261fa9be8921ff296e5c files=6`,
		"zoned-write-back": `store ch0 hit=42 miss=21 ev=17 wb=13 bwb=10 str=0 win=0 pf=0 pfh=0 busy=84447 dram=23984
store ch0 hit=42 miss=22 ev=18 wb=21 bwb=19 str=0 win=0 pf=0 pfh=0 busy=100670 dram=30192
store ch0 hit=41 miss=11 ev=7 wb=10 bwb=9 str=0 win=0 pf=0 pfh=0 busy=54849 dram=15620
tls ch1 hit=125 miss=71 ev=0 wb=54 bwb=48 str=0 win=0 pf=0 pfh=0 busy=252023 dram=130460
reg=0 init=40000 lookup=82/34/1442
resp=0/0/0
dram=9acd2ab74d77202fd7eac4c7 files=6`,
		"oblivious": `store ch0 hit=0 miss=0 ev=0 wb=0 bwb=0 str=7815 win=520 pf=0 pfh=0 busy=14452362 dram=8098180
tls ch1 hit=125 miss=71 ev=0 wb=54 bwb=48 str=0 win=0 pf=0 pfh=0 busy=252023 dram=130460
reg=0 init=40000 lookup=221/88/3741
resp=0/0/0
oram=125/30720000/1 cycles=14030400
dram=37571d9b550a109ddf7d6f17 files=6`,
	}
	for _, m := range goldenModes() {
		t.Run(m.name, func(t *testing.T) {
			got := goldenNodeTrace(t, m.cfg)
			if got != golden[m.name] {
				t.Errorf("%s footprint changed:\n got:\n%s\nwant:\n%s", m.name, got, golden[m.name])
			}
		})
	}
}
