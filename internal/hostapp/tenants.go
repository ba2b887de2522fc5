package hostapp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Typed tenant-lifecycle errors. Callers branch with errors.Is; the
// concrete *TenantQuotaError carries the tenant identity for logs.
var (
	// ErrTenantQuota marks a zone request that would exceed the tenant's
	// byte quota.
	ErrTenantQuota = errors.New("hostapp: tenant quota exceeded")
	// ErrTenantLimit marks a zone request that would exceed the server's
	// distinct-tenant cap.
	ErrTenantLimit = errors.New("hostapp: tenant limit reached")
)

// TenantQuotaError reports which tenant asked for how much.
type TenantQuotaError struct {
	Tenant string
	Need   uint64
	Used   uint64
	Limit  uint64
}

func (e *TenantQuotaError) Error() string {
	return fmt.Sprintf("hostapp: tenant %q quota exceeded: need %d bytes, %d of %d in use",
		e.Tenant, e.Need, e.Used, e.Limit)
}

func (e *TenantQuotaError) Unwrap() error { return ErrTenantQuota }

// tenantState is one tenant's serving-tier bookkeeping.
type tenantState struct {
	zoneBytes uint64
	zones     int
	weight    int
	active    int // sessions in flight
	served    uint64
	shed      uint64
}

// TenantRegistry is the serving tier's tenant table: zone footprints
// against per-tenant quotas, live-session counts for the weighted-fair
// admission gate, and per-tenant served/shed counters. It implements
// attest.ZoneHandler so zone-create/zone-destroy RPCs land on the same
// bookkeeping the admission gate reads. Safe for concurrent use.
type TenantRegistry struct {
	mu         sync.Mutex
	maxTenants int
	quotaBytes uint64
	tenants    map[string]*tenantState
}

// NewTenantRegistry builds a registry capping distinct tenants at
// maxTenants and each tenant's zone footprint at quotaBytes (0 = either
// bound unlimited).
func NewTenantRegistry(maxTenants int, quotaBytes uint64) *TenantRegistry {
	return &TenantRegistry{
		maxTenants: maxTenants,
		quotaBytes: quotaBytes,
		tenants:    make(map[string]*tenantState),
	}
}

// state returns (creating if needed) a tenant's row. Callers hold r.mu;
// the distinct-tenant cap is the caller's concern (only zone creation
// enforces it — sessions from unknown tenants still serve).
func (r *TenantRegistry) state(tenant string) *tenantState {
	s, ok := r.tenants[tenant]
	if !ok {
		s = &tenantState{weight: 1}
		r.tenants[tenant] = s
	}
	return s
}

// CreateZone admits a zone of the given footprint for tenant, enforcing
// the distinct-tenant cap (ErrTenantLimit) and the per-tenant byte quota
// (*TenantQuotaError, errors.Is ErrTenantQuota).
func (r *TenantRegistry) CreateZone(tenant string, bytes uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.state(tenant)
	if s.zones == 0 && r.maxTenants > 0 {
		// The cap counts zone-holders, not sessions: a tenant whose
		// sessions have been seen but who holds no zones is still "new"
		// for admission purposes.
		holders := 0
		for _, t := range r.tenants {
			if t.zones > 0 {
				holders++
			}
		}
		if holders >= r.maxTenants {
			return fmt.Errorf("hostapp: tenant %q refused: %d tenants already hold zones: %w",
				tenant, holders, ErrTenantLimit)
		}
	}
	if r.quotaBytes > 0 && s.zoneBytes+bytes > r.quotaBytes {
		return &TenantQuotaError{Tenant: tenant, Need: bytes, Used: s.zoneBytes, Limit: r.quotaBytes}
	}
	s.zoneBytes += bytes
	s.zones++
	return nil
}

// DestroyZone releases all of tenant's zones and their budget.
func (r *TenantRegistry) DestroyZone(tenant string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.tenants[tenant]
	if !ok || s.zones == 0 {
		return fmt.Errorf("hostapp: tenant %q holds no zones", tenant)
	}
	s.zoneBytes = 0
	s.zones = 0
	return nil
}

// SessionStart records a tenant's session entering service.
func (r *TenantRegistry) SessionStart(tenant string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state(tenant).active++
}

// SessionEnd records a tenant's session leaving service.
func (r *TenantRegistry) SessionEnd(tenant string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.state(tenant); s.active > 0 {
		s.active--
	}
}

// addServed adds delta (two's complement to subtract) to tenant's count
// of successfully served sessions.
func (r *TenantRegistry) addServed(tenant string, delta uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state(tenant).served += delta
}

// RecordShed counts an admission shed against tenant.
func (r *TenantRegistry) RecordShed(tenant string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state(tenant).shed++
}

// OverFairShare reports whether tenant is at or above its weighted fair
// share of a saturated server: share = maxSessions * weight /
// total-active-weight (at least 1, so every tenant can always run one
// session). The gate is work-conserving — it is consulted only when no
// free slot exists, so an under-subscribed server admits anyone.
func (r *TenantRegistry) OverFairShare(tenant string, maxSessions int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.state(tenant)
	totalWeight := s.weight // the asking tenant counts even when idle
	for t, ts := range r.tenants {
		if t != tenant && ts.active > 0 {
			totalWeight += ts.weight
		}
	}
	share := maxSessions * s.weight / totalWeight
	if share < 1 {
		share = 1
	}
	return s.active >= share
}

// TenantStats is one tenant's row in ServerStats and /debug/stats.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Active    int    `json:"active"`
	Served    uint64 `json:"served"`
	Shed      uint64 `json:"shed"`
	Zones     int    `json:"zones"`
	ZoneBytes uint64 `json:"zone_bytes"`
	// QuotaBytes echoes the per-tenant quota (0 = unlimited).
	QuotaBytes uint64 `json:"quota_bytes"`
	Weight     int    `json:"weight"`
}

// Stats snapshots every tenant row, sorted by tenant for deterministic
// reporting.
func (r *TenantRegistry) Stats() []TenantStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TenantStats, 0, len(r.tenants))
	for name, s := range r.tenants {
		out = append(out, TenantStats{
			Tenant:     name,
			Active:     s.active,
			Served:     s.served,
			Shed:       s.shed,
			Zones:      s.zones,
			ZoneBytes:  s.zoneBytes,
			QuotaBytes: r.quotaBytes,
			Weight:     s.weight,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
