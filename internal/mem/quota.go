package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrQuotaExceeded is the sentinel behind every tenant quota rejection.
// Callers branch with errors.Is; the concrete *QuotaError carries the
// tenant identity and the resource that ran out.
var ErrQuotaExceeded = errors.New("mem: tenant quota exceeded")

// Quota bounds one tenant's footprint on the device. Zero fields are
// unlimited, so the zero Quota admits everything (the single-tenant
// compatibility default).
type Quota struct {
	// DRAMBytes caps the tenant's device-memory footprint: region data
	// plus the MAC tag shadow each region drags along.
	DRAMBytes uint64
	// OCMBytes caps the tenant's on-chip metadata budget: buffer lines,
	// freshness counters, and valid bits.
	OCMBytes uint64
}

// Usage is a tenant's current charge against its quota.
type Usage struct {
	DRAMBytes uint64
	OCMBytes  uint64
	// Regions counts live charges (one per protection zone).
	Regions int
}

// QuotaError reports which tenant hit which resource limit. It unwraps to
// ErrQuotaExceeded so serving tiers can classify it without string
// matching.
type QuotaError struct {
	Tenant   string
	Resource string // "dram" or "ocm"
	Need     uint64
	Used     uint64
	Limit    uint64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("mem: tenant %q %s quota exceeded: need %d bytes, %d of %d in use",
		e.Tenant, e.Resource, e.Need, e.Used, e.Limit)
}

func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// Accountant meters per-tenant DRAM and OCM charges against quotas. It is
// the bookkeeping half of multi-tenant isolation: the Shield's region
// table asks it before carving a protection zone, so one tenant cannot
// squat on the whole device. Safe for concurrent use.
type Accountant struct {
	mu     sync.Mutex
	def    Quota
	quotas map[string]Quota
	usage  map[string]Usage
}

// NewAccountant builds an accountant whose tenants default to def (zero
// fields of def are unlimited).
func NewAccountant(def Quota) *Accountant {
	return &Accountant{
		def:    def,
		quotas: make(map[string]Quota),
		usage:  make(map[string]Usage),
	}
}

// SetQuota overrides the default quota for one tenant. It does not evict
// existing charges: a tenant already over the new limit keeps what it
// holds but cannot grow.
func (a *Accountant) SetQuota(tenant string, q Quota) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.quotas[tenant] = q
}

// quotaLocked resolves the effective quota for a tenant.
func (a *Accountant) quotaLocked(tenant string) Quota {
	if q, ok := a.quotas[tenant]; ok {
		return q
	}
	return a.def
}

// Charge reserves dramBytes and ocmBytes against tenant's quota,
// returning a *QuotaError (errors.Is ErrQuotaExceeded) if either
// resource would overflow. A successful charge must be paired with
// Release.
func (a *Accountant) Charge(tenant string, dramBytes, ocmBytes uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := a.quotaLocked(tenant)
	u := a.usage[tenant]
	if q.DRAMBytes > 0 && u.DRAMBytes+dramBytes > q.DRAMBytes {
		return &QuotaError{Tenant: tenant, Resource: "dram",
			Need: dramBytes, Used: u.DRAMBytes, Limit: q.DRAMBytes}
	}
	if q.OCMBytes > 0 && u.OCMBytes+ocmBytes > q.OCMBytes {
		return &QuotaError{Tenant: tenant, Resource: "ocm",
			Need: ocmBytes, Used: u.OCMBytes, Limit: q.OCMBytes}
	}
	u.DRAMBytes += dramBytes
	u.OCMBytes += ocmBytes
	u.Regions++
	a.usage[tenant] = u
	return nil
}

// Release returns a prior charge to the tenant's budget. Releasing more
// than is held clamps to zero (idempotent teardown).
func (a *Accountant) Release(tenant string, dramBytes, ocmBytes uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	u := a.usage[tenant]
	if dramBytes > u.DRAMBytes {
		u.DRAMBytes = 0
	} else {
		u.DRAMBytes -= dramBytes
	}
	if ocmBytes > u.OCMBytes {
		u.OCMBytes = 0
	} else {
		u.OCMBytes -= ocmBytes
	}
	if u.Regions > 0 {
		u.Regions--
	}
	if u == (Usage{}) {
		delete(a.usage, tenant)
	} else {
		a.usage[tenant] = u
	}
}

// UsageFor reports a tenant's current charges (zero Usage if none).
func (a *Accountant) UsageFor(tenant string) Usage {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usage[tenant]
}

// Tenants returns the tenants with live charges, sorted for deterministic
// reporting.
func (a *Accountant) Tenants() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.usage))
	for t := range a.usage {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
