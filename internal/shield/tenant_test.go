package shield

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
)

// tenantRig provisions a Shield with no static regions and an arena left
// open for runtime-created zones.
func tenantRig(t testing.TB, cfg Config, dramBytes uint64, params perf.Params) *testRig {
	t.Helper()
	dram := mem.NewDRAM(dramBytes, params)
	ocm := mem.NewOCM(256 * 1000 * 1000)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(cfg, priv, dram, ocm, params)
	if err != nil {
		t.Fatal(err)
	}
	dek := bytes.Repeat([]byte{0x5A}, 32)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		t.Fatal(err)
	}
	return &testRig{shield: sh, dram: dram, dek: dek}
}

// zoneConfig is a small tenant zone at base.
func zoneConfig(tenant string, base, size uint64) RegionConfig {
	return RegionConfig{
		Name: "zone", Tenant: tenant, Base: base, Size: size, ChunkSize: 512,
		AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		MAC: HMAC, BufferBytes: 2 * 512,
	}
}

func TestCreateDestroyRegion(t *testing.T) {
	rig := tenantRig(t, Config{Registers: 4, ArenaEnd: 1 << 20}, 1<<22, perf.Default())
	sh := rig.shield
	if err := sh.CreateRegion(zoneConfig("alice", 0, 1<<14)); err != nil {
		t.Fatal(err)
	}
	msg := []byte("alice's secret")
	if _, err := sh.WriteBurst(0x100, msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := sh.ReadBurst(0x100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("read back %q, want %q", buf, msg)
	}
	if err := sh.FlushTenantRegion("alice", "zone"); err != nil {
		t.Fatal(err)
	}
	if err := sh.DestroyRegion("alice", "zone"); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ReadBurst(0x100, buf); err == nil {
		t.Fatal("destroyed zone still served a read")
	}
	// The address range and tag shadow are reusable by another tenant,
	// and the destroyed data must not resurface.
	if err := sh.CreateRegion(zoneConfig("bob", 0, 1<<14)); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ReadBurst(0x100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, len(msg))) {
		t.Fatal("bob's fresh zone leaked alice's plaintext")
	}
}

func TestTenantQuotaTypedError(t *testing.T) {
	cfg := Config{
		Registers:          4,
		ArenaEnd:           1 << 20,
		DefaultTenantQuota: mem.Quota{DRAMBytes: 20 << 10},
	}
	rig := tenantRig(t, cfg, 1<<22, perf.Default())
	sh := rig.shield
	if err := sh.CreateRegion(zoneConfig("mallory", 0, 1<<14)); err != nil {
		t.Fatal(err)
	}
	err := sh.CreateRegion(RegionConfig{
		Name: "zone2", Tenant: "mallory", Base: 1 << 14, Size: 1 << 14, ChunkSize: 512,
		AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128, MAC: HMAC,
	})
	if !errors.Is(err, mem.ErrQuotaExceeded) {
		t.Fatalf("over-quota create = %v, want ErrQuotaExceeded", err)
	}
	var qe *mem.QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "mallory" || qe.Resource != "dram" {
		t.Fatalf("quota error %+v not attributable", err)
	}
	// A different tenant still has budget, and a raised quota unblocks.
	if err := sh.CreateRegion(zoneConfig("honest", 1<<15, 1<<14)); err != nil {
		t.Fatal(err)
	}
	sh.SetTenantQuota("mallory", mem.Quota{DRAMBytes: 1 << 20})
	if err := sh.CreateRegion(RegionConfig{
		Name: "zone2", Tenant: "mallory", Base: 1 << 14, Size: 1 << 14, ChunkSize: 512,
		AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128, MAC: HMAC,
	}); err != nil {
		t.Fatal(err)
	}
	if got := sh.TenantUsage("mallory").Regions; got != 2 {
		t.Fatalf("mallory holds %d regions, want 2", got)
	}
}

func TestTenantErrorTextAttributable(t *testing.T) {
	rig := newRig(t, simpleConfig())
	err := rig.shield.FlushRegion("nope")
	if err == nil || !strings.Contains(err.Error(), `tenant "default"`) {
		t.Fatalf("default-session error not attributable: %v", err)
	}
	cfg := simpleConfig()
	cfg.Tenant = "acme"
	rig = newRig(t, cfg)
	err = rig.shield.FlushRegion("nope")
	if err == nil || !strings.Contains(err.Error(), `tenant "acme"`) ||
		!strings.Contains(err.Error(), `unknown region "nope"`) {
		t.Fatalf("session error not attributable: %v", err)
	}
}

func TestLazyMaterializationAndReclaim(t *testing.T) {
	rig := tenantRig(t, Config{Registers: 4, ArenaEnd: 1 << 20}, 1<<22, perf.Default())
	sh := rig.shield
	ocmBefore := sh.ocm.UsedBits()
	if err := sh.CreateRegion(zoneConfig("idle", 0, 1<<14)); err != nil {
		t.Fatal(err)
	}
	if got := sh.ocm.UsedBits(); got != ocmBefore {
		t.Fatalf("idle zone pinned on-chip memory: %d -> %d bits", ocmBefore, got)
	}
	if z := sh.Zones(); len(z) != 1 || z[0].Live {
		t.Fatalf("idle zone reported live: %+v", z)
	}
	msg := []byte("survives reclaim")
	if _, err := sh.WriteBurst(0, msg); err != nil {
		t.Fatal(err)
	}
	if z := sh.Zones(); !z[0].Live {
		t.Fatal("touched zone not materialised")
	}
	ocmLive := sh.ocm.UsedBits()
	if ocmLive == ocmBefore {
		t.Fatal("materialised zone holds no on-chip memory")
	}
	if err := sh.ReclaimRegion("idle", "zone"); err != nil {
		t.Fatal(err)
	}
	// Reclaim returns the buffer and window budget; only the durable
	// metadata (valid bits — no freshness here) stays resident.
	chunks := (1 << 14) / 512
	metaBits := uint64((chunks+7)/8) * 8
	if got := sh.ocm.UsedBits(); got != ocmBefore+metaBits {
		t.Fatalf("reclaim kept %d bits on-chip, want %d (was %d live)",
			got-ocmBefore, metaBits, ocmLive-ocmBefore)
	}
	if z := sh.Zones(); z[0].Live {
		t.Fatal("reclaimed zone still live")
	}
	// The quota reservation survives reclaim, so re-materialisation can
	// never fail admission — and the flushed data comes back intact.
	if got := sh.TenantUsage("idle").Regions; got != 1 {
		t.Fatalf("reclaim dropped the quota reservation (%d regions)", got)
	}
	buf := make([]byte, len(msg))
	if _, err := sh.ReadBurst(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("reclaimed zone lost data: %q", buf)
	}
}

func TestRegionLookupCacheCounts(t *testing.T) {
	params := perf.Default()
	rig := tenantRig(t, Config{Registers: 4, ArenaEnd: 1 << 20}, 1<<22, params)
	sh := rig.shield
	if err := sh.CreateRegion(zoneConfig("hot", 0, 1<<14)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	const accesses = 64
	for i := 0; i < accesses; i++ {
		if _, err := sh.ReadBurst(uint64(i*32), buf); err != nil {
			t.Fatal(err)
		}
	}
	rep := sh.Report()
	lk := rep.Lookup
	if lk.Hits+lk.Misses != accesses {
		t.Fatalf("lookup counted %d+%d resolutions, want %d", lk.Hits, lk.Misses, accesses)
	}
	// The zone spans 4 pages of the default 4 KiB geometry: at most one
	// compulsory miss per page, everything else O(1) hits.
	if lk.Misses > 4 {
		t.Fatalf("%d lookup misses for a 4-page zone", lk.Misses)
	}
	if want := lookupCycles(lk.Hits, lk.Misses); lk.Cycles != want {
		t.Fatalf("lookup cycles %d, want %d", lk.Cycles, want)
	}
	if rep.TotalCycles() <= rep.MemoryCycles()+rep.RegisterCycles+rep.InitCycles {
		t.Fatal("TotalCycles does not charge region resolution")
	}
	// Destroying any zone is a shootdown: the next access misses again.
	if err := sh.CreateRegion(zoneConfig("other", 1<<15, 1<<14)); err != nil {
		t.Fatal(err)
	}
	if err := sh.DestroyRegion("other", "zone"); err != nil {
		t.Fatal(err)
	}
	sh.ResetStats()
	if _, err := sh.ReadBurst(0, buf); err != nil {
		t.Fatal(err)
	}
	if lk := sh.Report().Lookup; lk.Misses != 1 {
		t.Fatalf("post-shootdown access recorded %d misses, want 1", lk.Misses)
	}
}

// TestTenantChurn1k is the multi-tenant scaling gauntlet: 1k+ tenants
// create, use, and destroy protection zones concurrently (run under
// -race in CI).
func TestTenantChurn1k(t *testing.T) {
	const (
		workers          = 64
		tenantsPerWorker = 16 // 1024 tenants total
		zoneSize         = 1 << 13
	)
	arena := uint64(workers * tenantsPerWorker * zoneSize)
	rig := tenantRig(t, Config{Registers: 4, ArenaEnd: arena}, arena+(4<<20), perf.Default())
	sh := rig.shield
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < tenantsPerWorker; i++ {
				tenant := fmt.Sprintf("tenant-%d-%d", w, i)
				base := uint64(w*tenantsPerWorker+i) * zoneSize
				rc := zoneConfig(tenant, base, zoneSize)
				if err := sh.CreateRegion(rc); err != nil {
					errs[w] = err
					return
				}
				want := []byte(tenant)
				if _, err := sh.WriteBurst(base+64, want); err != nil {
					errs[w] = err
					return
				}
				if _, err := sh.ReadBurst(base+64, buf[:len(want)]); err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(buf[:len(want)], want) {
					errs[w] = fmt.Errorf("tenant %s read back %q", tenant, buf[:len(want)])
					return
				}
				if i%2 == 0 {
					if err := sh.DestroyRegion(tenant, "zone"); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Half the zones survive; every destroyed tenant released its quota.
	zones := sh.Zones()
	if want := workers * tenantsPerWorker / 2; len(zones) != want {
		t.Fatalf("%d zones survive churn, want %d", len(zones), want)
	}
	if got := len(sh.Tenants()); got != workers*tenantsPerWorker/2 {
		t.Fatalf("%d tenants hold charges, want %d", got, workers*tenantsPerWorker/2)
	}
}
