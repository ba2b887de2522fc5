package hostapp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shef/internal/attest"
	"shef/internal/faultinject"
	"shef/internal/profiling"
)

// OwnerSession is one Data Owner connection being served. Each session is
// fully isolated: it owns its connection and its protocol scratch state,
// and touches the vendor only through attest.Vendor's concurrent-safe
// surfaces (the CA registry and the read-only bitstream catalogue). No
// mutable vendor state is shared between sessions, so a slow or malicious
// owner cannot corrupt a neighbour's attestation.
type OwnerSession struct {
	ID     uint64
	Remote string
	// Tenant is the requesting tenant (empty for legacy single-tenant
	// clients or servers without tenant admission).
	Tenant string

	conn net.Conn
}

// ServerConfig bounds the serving tier. The zero value is the legacy
// unbounded server (accept everything, queue nothing).
type ServerConfig struct {
	// MaxSessions caps concurrently served sessions; 0 means unlimited.
	MaxSessions int
	// MaxQueue is how many connections may wait for a session slot when
	// MaxSessions are busy. Beyond that, new connections are shed with a
	// busy response. 0 means no queue: at capacity, shed immediately.
	MaxQueue int
	// RetryAfter is the backoff hint sent with a shed; default 100ms.
	RetryAfter time.Duration
	// MaxTenants caps how many distinct tenants may hold zones (0 =
	// unlimited). Setting it (or TenantQuotaBytes, or TenantFair) makes
	// the server tenant-aware: requests are read before admission so the
	// gate knows who is asking, zone RPCs are served, and overload sheds
	// per tenant instead of globally.
	MaxTenants int
	// TenantQuotaBytes caps each tenant's zone footprint (0 = unlimited).
	TenantQuotaBytes uint64
	// TenantFair enables weighted-fair admission even with no tenant
	// caps configured.
	TenantFair bool
}

// tenantAware reports whether any multi-tenant feature is configured.
func (c ServerConfig) tenantAware() bool {
	return c.MaxTenants > 0 || c.TenantQuotaBytes > 0 || c.TenantFair
}

// VendorServer multiplexes Data Owner sessions over one attestation
// vendor: the serving tier of shefd. Connections are accepted on a
// listener and served one goroutine per session, with admission control
// (max-sessions plus a bounded wait queue; excess load is shed with a
// retry-after hint rather than accepted unboundedly) and bounded-time
// graceful shutdown.
type VendorServer struct {
	vendor *attest.Vendor
	ln     net.Listener
	cfg    ServerConfig

	mu       sync.Mutex
	sessions map[uint64]*OwnerSession
	nextID   uint64
	closed   bool

	// closedCh is the shutdown gate: closed (under mu) the moment
	// Shutdown begins, before any session is force-closed, so connections
	// waiting in the admission queue abort instead of being admitted into
	// a drain that has already walked the session table.
	closedCh chan struct{}

	// slots is the session-slot semaphore (nil when unlimited); queued
	// tracks connections waiting for a slot.
	slots  chan struct{}
	queued atomic.Int64

	// registry is the tenant table (nil for tenant-oblivious servers):
	// zone quotas, live per-tenant session counts for the fair gate, and
	// per-tenant counters.
	registry *TenantRegistry

	wg     sync.WaitGroup
	served atomic.Uint64
	failed atomic.Uint64
	shed   atomic.Uint64
}

// NewVendorServer wraps a vendor and a listener with no admission bounds.
// Call Serve to start accepting.
func NewVendorServer(vendor *attest.Vendor, ln net.Listener) *VendorServer {
	return NewVendorServerWith(vendor, ln, ServerConfig{})
}

// NewVendorServerWith wraps a vendor and a listener with admission
// control. Call Serve to start accepting.
func NewVendorServerWith(vendor *attest.Vendor, ln net.Listener, cfg ServerConfig) *VendorServer {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 100 * time.Millisecond
	}
	s := &VendorServer{
		vendor:   vendor,
		ln:       ln,
		cfg:      cfg,
		sessions: make(map[uint64]*OwnerSession),
		closedCh: make(chan struct{}),
	}
	if cfg.MaxSessions > 0 {
		s.slots = make(chan struct{}, cfg.MaxSessions)
	}
	if cfg.tenantAware() {
		s.registry = NewTenantRegistry(cfg.MaxTenants, cfg.TenantQuotaBytes)
		if vendor.Zones == nil {
			vendor.Zones = s.registry
		}
	}
	return s
}

// Tenants exposes the tenant registry (nil for tenant-oblivious servers).
func (s *VendorServer) Tenants() *TenantRegistry { return s.registry }

// Addr reports the listen address.
func (s *VendorServer) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts and serves owner sessions until Shutdown (or a fatal
// listener error). It blocks; run it on its own goroutine when the caller
// has other work. Admission (including waiting for a session slot)
// happens on the per-connection goroutine so a full server keeps
// accepting — and shedding — instead of letting the kernel backlog grow.
func (s *VendorServer) Serve(onError func(error)) error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		if !s.track() {
			conn.Close()
			return ErrServerClosed
		}
		go s.serveConn(conn, onError)
	}
}

// track registers one connection goroutine with the drain waitgroup. The
// Add happens under the same lock as the closed check, so a connection
// can never slip in between Shutdown's closed=true and its wg.Wait (the
// classic Add-vs-Wait race).
func (s *VendorServer) track() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

// serveConn runs one connection through admission and, if admitted, the
// owner protocol. Tenant-aware servers read the request up front — the
// fair gate needs to know which tenant is asking before it decides who
// overload falls on.
func (s *VendorServer) serveConn(conn net.Conn, onError func(error)) {
	defer s.wg.Done()
	var req *attest.OwnerRequest
	tenant := ""
	if s.registry != nil {
		var rerr error
		req, rerr = attest.ReadOwnerRequest(conn)
		if rerr != nil {
			s.failed.Add(1)
			conn.Close()
			return
		}
		tenant = req.Tenant
	}
	if !s.acquireSlot(conn, tenant) {
		return
	}
	if s.registry != nil {
		s.registry.SessionStart(tenant)
		defer s.registry.SessionEnd(tenant)
	}
	defer s.releaseSlot()
	sess, ok := s.admit(conn, tenant)
	if !ok {
		conn.Close()
		return
	}
	defer s.release(sess)
	// Each session goroutine carries its session ID as a profiling
	// label and runs inside a trace region, so a harness attributes
	// serving CPU per session and the execution trace shows session
	// lifetimes. Sessions are connection-rate, not op-rate, so the
	// label formatting is off the hot path.
	var err error
	var sc *sessionConn
	serve := func() {
		var rw io.ReadWriter = conn
		if faultinject.Enabled() {
			rw = faultinject.WrapRW(conn, "attest.conn", int(sess.ID))
		}
		sc = &sessionConn{rw: rw}
		if req != nil {
			err = s.vendor.HandleOwnerRequest(sc, req)
		} else {
			err = s.vendor.HandleOwner(sc)
		}
	}
	if profiling.Enabled() {
		profiling.Do(context.Background(), func() {
			profiling.Region(context.Background(), "hostapp.session", serve)
		}, "subsystem", "hostapp", "session", strconv.FormatUint(sess.ID, 10))
	} else {
		serve()
	}
	if err == nil {
		// Count the session before its last response leaves: a client
		// that reads that response and asks for Stats must already see
		// it served. A failed final flush takes the count back.
		s.countServed(tenant, true)
		if err = sc.flush(); err != nil {
			s.countServed(tenant, false)
		}
	} else {
		_ = sc.flush() // best effort: what the session wrote before failing still goes out
	}
	if err != nil {
		s.failed.Add(1)
		if onError != nil {
			onError(fmt.Errorf("session %d from %s: %w", sess.ID, sess.Remote, err))
		}
	}
}

// countServed adds one served session (served true) or takes one back
// (false, when the session's final flush failed).
func (s *VendorServer) countServed(tenant string, served bool) {
	delta := uint64(1)
	if !served {
		delta = ^uint64(0)
	}
	if s.registry != nil {
		s.registry.addServed(tenant, delta)
	}
	s.served.Add(delta)
}

// sessionConn buffers a session's writes and flushes them before every
// read, so each protocol turn still reaches the client before the server
// waits for the answer, while the last response stays buffered until the
// session has been counted.
type sessionConn struct {
	rw  io.ReadWriter
	out bytes.Buffer
}

func (c *sessionConn) Write(p []byte) (int, error) { return c.out.Write(p) }

func (c *sessionConn) Read(p []byte) (int, error) {
	if err := c.flush(); err != nil {
		return 0, err
	}
	return c.rw.Read(p)
}

// flush writes out everything buffered.
func (c *sessionConn) flush() error {
	_, err := c.out.WriteTo(c.rw)
	return err
}

// acquireSlot is the admission gate. With MaxSessions unset it admits
// immediately. At capacity the connection joins the bounded wait queue;
// past the queue bound it is shed (refuse): the server writes the busy
// response with the retry-after hint and closes. A queued connection
// aborts if shutdown begins. Reports whether a slot was acquired.
//
// Tenant-aware servers add a weighted-fair pre-gate: when the server is
// saturated, a tenant already at its fair share is shed immediately —
// before it can occupy queue space — so overload falls on whoever is
// hogging, not on every tenant equally. The gate is work-conserving: a
// free slot admits anyone.
func (s *VendorServer) acquireSlot(conn net.Conn, tenant string) bool {
	if s.slots == nil {
		return true
	}
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	if s.registry != nil && s.registry.OverFairShare(tenant, s.cfg.MaxSessions) {
		s.registry.RecordShed(tenant)
		s.shed.Add(1)
		s.refuse(conn)
		return false
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.shed.Add(1)
		if s.registry != nil {
			s.registry.RecordShed(tenant)
		}
		s.refuse(conn)
		return false
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return true
	case <-s.closedCh:
		conn.Close()
		return false
	}
}

// shedLinger bounds how long a shed connection is drained before it is
// closed, and shedDrainMax how many bytes that drain reads.
const (
	shedLinger   = 250 * time.Millisecond
	shedDrainMax = 1 << 20
)

// refuse sheds conn with the busy response and a lingering close. The
// client's request may still be unread, and closing a TCP socket with
// unread input sends an RST, which can make the client's request write
// fail or discard the busy response before it is read. So the server
// half-closes its side, drains the peer until it closes (or the linger
// bound passes), and only then closes.
func (s *VendorServer) refuse(conn net.Conn) {
	defer conn.Close()
	if attest.WriteBusy(conn, s.cfg.RetryAfter) != nil {
		return
	}
	// Best effort from here: a failed half-close or drain only cuts the
	// linger short.
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(shedLinger))
	io.Copy(io.Discard, io.LimitReader(conn, shedDrainMax))
}

func (s *VendorServer) releaseSlot() {
	if s.slots != nil {
		<-s.slots
	}
}

// admit registers a new session unless the server is shutting down.
func (s *VendorServer) admit(conn net.Conn, tenant string) (*OwnerSession, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	s.nextID++
	sess := &OwnerSession{ID: s.nextID, Remote: conn.RemoteAddr().String(), Tenant: tenant, conn: conn}
	s.sessions[sess.ID] = sess
	return sess, true
}

func (s *VendorServer) release(sess *OwnerSession) {
	sess.conn.Close()
	s.mu.Lock()
	delete(s.sessions, sess.ID)
	s.mu.Unlock()
}

// Shutdown stops accepting and waits up to timeout for in-flight sessions
// to drain; sessions still running after that are cut off. The gate
// (closed flag and closedCh) is shut before any session is walked, so a
// connection still in admission when the drain starts either finished
// admitting before the gate closed — and is then visible to the force
// pass — or aborts; nothing is admitted after the force pass and left
// running unreleased. It is safe to call more than once.
func (s *VendorServer) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	if !already {
		close(s.closedCh)
	}
	s.mu.Unlock()
	if !already {
		s.ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
	}
	// Force the stragglers: closing their connections unblocks HandleOwner.
	s.mu.Lock()
	n := len(s.sessions)
	for _, sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	<-done
	if n == 0 {
		// The last session released in the instant between the timeout and
		// the force pass: that is a clean drain, not a cut-off.
		return nil
	}
	return fmt.Errorf("hostapp: %d session(s) cut off after %s drain", n, timeout)
}

// ServerStats is a point-in-time serving report.
type ServerStats struct {
	Active uint64
	Queued uint64
	Served uint64
	Failed uint64
	// Shed counts connections refused by admission control (busy
	// response sent, connection closed).
	Shed uint64
	// MaxSessions echoes the configured bound (0 = unlimited) so a stats
	// consumer can tell "quiet" from "unbounded".
	MaxSessions int
	// Tenants is the per-tenant breakdown (nil for tenant-oblivious
	// servers): zones, quota usage, served/shed counts, fairness weight.
	Tenants []TenantStats
}

// Stats snapshots session counters.
func (s *VendorServer) Stats() ServerStats {
	s.mu.Lock()
	active := uint64(len(s.sessions))
	s.mu.Unlock()
	st := ServerStats{
		Active:      active,
		Queued:      uint64(s.queued.Load()),
		Served:      s.served.Load(),
		Failed:      s.failed.Load(),
		Shed:        s.shed.Load(),
		MaxSessions: s.cfg.MaxSessions,
	}
	if s.registry != nil {
		st.Tenants = s.registry.Stats()
	}
	return st
}

// SessionInfo is one live session as the debug stats endpoint reports it.
type SessionInfo struct {
	ID     uint64 `json:"id"`
	Remote string `json:"remote"`
	Tenant string `json:"tenant,omitempty"`
}

// Sessions snapshots the live sessions (the per-tenant rows of the
// -debug stats endpoint), sorted by admission order via their IDs.
func (s *VendorServer) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, SessionInfo{ID: sess.ID, Remote: sess.Remote, Tenant: sess.Tenant})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ErrServerClosed mirrors net/http's sentinel for callers that want to
// distinguish an orderly shutdown from an accept failure.
var ErrServerClosed = errors.New("hostapp: server closed")
