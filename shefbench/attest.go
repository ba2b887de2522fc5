package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"time"

	"shef/internal/attest"
	"shef/internal/bitstream"
	"shef/internal/crypto/schnorr"
	"shef/internal/hostapp"
)

// The attest workload's offering, arrival rate and tails. bitcoin at
// difficulty 8 is the smallest design in the registry, so a session's
// cost is the protocol's, not the bitstream's size.
const (
	attestDesign = "bitcoin"
	attestRate   = 100 // sessions/s over all workers
)

var (
	attestParams = map[string]string{"difficulty": "8"}
	attestTails  = tails{subs: 2, get: 0.98, put: 0.98, session: 0.98}
)

// attestRun is one vendor served over loopback TCP plus a pool of
// manufactured, registered and booted devices, one per worker.
type attestRun struct {
	vendor    *attest.Vendor
	product   string
	want      [32]byte // hash of the bitstream the vendor offers
	srv       *hostapp.VendorServer
	serveDone chan error
	addr      string
	devices   []*hostapp.Platform
}

// setupAttest builds the vendor, starts its server with at most one
// session per CPU and a queue as deep, and builds the device pool. The
// device serials come from seed; each set-up has its own vendor and CA.
func setupAttest(seed uint64, devices int) (*attestRun, error) {
	vendor, product, err := hostapp.BuildVendor(hostapp.Options{Design: attestDesign, Params: attestParams})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	slots := openWorkers(2)
	a := &attestRun{
		vendor: vendor, product: product,
		want:      vendor.Bitstreams[product].Encrypted.Hash(),
		srv:       hostapp.NewVendorServerWith(vendor, ln, hostapp.ServerConfig{MaxSessions: slots, MaxQueue: slots}),
		serveDone: make(chan error, 1),
		addr:      ln.Addr().String(),
	}
	go func() { a.serveDone <- a.srv.Serve(nil) }()
	for i := range devices {
		opts := hostapp.Options{Design: attestDesign, Params: attestParams, Serial: fmt.Sprintf("bench-%016x-%d", seed, i)}
		plat, err := hostapp.BuildAgainstVendor(opts, product, a.dial, vendor)
		if err != nil {
			a.close()
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
		a.devices = append(a.devices, plat)
	}
	return a, nil
}

func (a *attestRun) dial() (io.ReadWriteCloser, error) { return net.Dial("tcp", a.addr) }

// close stops the server and waits for its accept loop to return.
func (a *attestRun) close() {
	_ = a.srv.Shutdown(time.Second) // sessions are all finished; a drain timeout cannot lose work
	<-a.serveDone
}

// countingConn times a connection's first request byte and first reply
// byte and counts its traffic, for the traced run.
type countingConn struct {
	io.ReadWriteCloser
	bytes            int64
	wrote, firstRead time.Time
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.wrote.IsZero() {
		c.wrote = time.Now()
	}
	n, err := c.ReadWriteCloser.Write(p)
	c.bytes += int64(n)
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	if n > 0 && c.firstRead.IsZero() {
		c.firstRead = time.Now()
	}
	c.bytes += int64(n)
	return n, err
}

// sessionOut is what one Data Owner session produced, kept for the check
// that runs after the session's timed interval.
type sessionOut struct {
	sent, fetched, done time.Time
	enc                 *bitstream.Encrypted
	resp                *attest.OwnerResponse
	shieldPub           *schnorr.PublicKey
	man                 *bitstream.Manifest
	bytes               int64
}

// session runs one Data Owner session against plat's Security Kernel:
// fetch the encrypted bitstream, attest the device and have the key
// delivered through the host, then load the accelerator with it.
func (a *attestRun) session(plat *hostapp.Platform, rec *recorder, req uint64) (out sessionOut, err error) {
	dial := func() (io.ReadWriteCloser, error) {
		c, err := a.dial()
		if err != nil || rec == nil {
			return c, err
		}
		return &countingConn{ReadWriteCloser: c}, nil
	}
	out.sent = time.Now()
	root := rec.begin(spOpSession, req, 0)
	defer func() {
		rec.end(root)
		out.done = time.Now()
	}()

	s := rec.begin(spFetch, req, root)
	conn, err := dial()
	if err != nil {
		return out, err
	}
	out.enc, err = attest.FetchBitstream(conn, a.product)
	conn.Close()
	rec.end(s)
	if c, ok := conn.(*countingConn); ok {
		out.bytes += c.bytes
	}
	if err != nil {
		return out, fmt.Errorf("fetch: %w", err)
	}
	out.fetched = time.Now()

	s = rec.begin(spProvision, req, root)
	if conn, err = dial(); err != nil {
		return out, err
	}
	var bitKey []byte
	out.resp, out.shieldPub, bitKey, err = attest.ProvisionViaHost(conn, a.product, plat.Options.Group, plat.Kernel, out.enc)
	conn.Close()
	rec.end(s)
	if c, ok := conn.(*countingConn); ok {
		out.bytes += c.bytes
		rec.add(spFirstByte, req, s, c.wrote, c.firstRead)
	}
	if err != nil {
		return out, fmt.Errorf("provision: %w", err)
	}

	s = rec.begin(spLoad, req, root)
	out.man, err = plat.Kernel.LoadAccelerator(out.enc, bitKey)
	rec.end(s)
	if err != nil {
		return out, fmt.Errorf("load: %w", err)
	}
	return out, nil
}

// check verifies a finished session: the device attested the bitstream
// the vendor offers, and the delivered key decrypted the vendor's
// manifest, whose embedded Shield key matches the one the vendor vouched
// for.
func (a *attestRun) check(plat *hostapp.Platform, out sessionOut) error {
	if got := out.enc.Hash(); got != a.want {
		return fmt.Errorf("%w: fetched bitstream %x is not the vendor's", errWrong, got[:8])
	}
	if !bytes.Equal(out.resp.BitstreamHash, a.want[:]) {
		return fmt.Errorf("%w: attested bitstream hash does not match the offering", errWrong)
	}
	if out.resp.DeviceSerial != plat.Options.Serial {
		return fmt.Errorf("%w: attested device %q, want %q", errWrong, out.resp.DeviceSerial, plat.Options.Serial)
	}
	if out.man.Design != attestDesign {
		return fmt.Errorf("%w: manifest names design %q", errWrong, out.man.Design)
	}
	priv, err := out.man.ShieldKey()
	if err != nil {
		return fmt.Errorf("%w: %w", errWrong, err)
	}
	if priv.Y.Cmp(out.shieldPub.Y) != 0 || priv.Y.Cmp(a.vendor.Bitstreams[a.product].ShieldPub.Y) != 0 {
		return fmt.Errorf("%w: manifest's shield key is not the vendor's", errWrong)
	}
	return nil
}

// runAttest runs the attest workload: set-up, a closed-loop window with
// one Data Owner, an open-loop window with one worker per device, the
// per-session checks, and the repeated set-ups that make setup_s a
// median.
func runAttest(cfg runConfig) (*result, error) {
	res := newResult()
	workers := openWorkers(2)
	t := time.Now()
	a, err := setupAttest(cfg.seed, workers)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer a.close()
	firstSetup := time.Since(t).Seconds()

	var queuedMax uint64
	mem := startSampler(func() {
		if cfg.trace {
			queuedMax = max(queuedMax, a.srv.Stats().Queued)
		}
	})
	closedBudget, openWindow := cfg.split()
	var req uint64
	closedLoop := func(rec *recorder) closed {
		c := newClosed(closedBudget)
		for c.ops == 0 || c.running() {
			req++
			out, err := a.session(a.devices[0], rec, req)
			if err == nil {
				err = a.check(a.devices[0], out)
			}
			c.record(out.done.Sub(out.sent))
			if err != nil {
				c.failed++
				res.problem(err)
			}
		}
		return c
	}
	srvBase := a.srv.Stats()
	goBase, _ := readGo()
	c := closedLoop(nil)
	goEnd, _ := readGo()
	res.attempted += c.ops
	res.failed += c.failed
	res.e2e("ops_per_s", c.opsPerSec())
	goLayers(res, goBase, goEnd, c.ops)

	var recs []*recorder
	if cfg.trace {
		rec := newRecorder(cfg.epoch, 1<<12)
		recs = append(recs, rec)
		t := closedLoop(rec)
		res.attempted += t.ops
		res.failed += t.failed
		res.layer("bench.trace_overhead_pct", 100*(1-t.opsPerSec()/c.opsPerSec()))
	}

	gens := make([]*gen, workers)
	lat := make([]latencies, workers)
	served := make([]int, workers)
	wrecs := make([]*recorder, workers)
	sessionBytes := make([]int64, workers)
	for i := range gens {
		lat[i] = make(latencies, attestTails.subs)
		gens[i] = newGen(cfg.seed, uint64(1+i), mix{}, attestRate/float64(workers))
		if cfg.trace {
			wrecs[i] = newRecorder(cfg.epoch, 1<<12)
			recs = append(recs, wrecs[i])
		}
	}
	open := runOpen(openWindow, attestTails.subs, gens, nil, func(w int, _ op, due time.Time, sub int) bool {
		served[w]++
		out, err := a.session(a.devices[w], wrecs[w], uint64(w+1)<<40|uint64(served[w]))
		if err == nil {
			l := &lat[w][sub]
			l.get = append(l.get, ms(out.fetched.Sub(due)))
			l.put = append(l.put, ms(out.done.Sub(out.fetched)))
			l.session = append(l.session, ms(out.done.Sub(due)))
			sessionBytes[w] += out.bytes
			err = a.check(a.devices[w], out)
		}
		if err != nil {
			res.problem(err)
		}
		return err == nil
	})
	res.e2e("mem_peak_MB", mem.finish())
	res.attempted += open.attempted
	res.failed += open.failed
	res.openLoop(open, attestRate, workers, lat, attestTails)

	st := a.srv.Stats()
	if failed := st.Failed - srvBase.Failed; failed > 0 {
		res.problem(fmt.Errorf("vendor server failed %d sessions", failed))
	}
	shed := st.Shed - srvBase.Shed
	res.layer("hostapp.shed_frac", ratio(shed, shed+st.Served-srvBase.Served+st.Failed-srvBase.Failed))
	if cfg.trace {
		res.layer("hostapp.queued_max", float64(queuedMax))
		var total int64
		for _, b := range sessionBytes {
			total += b
		}
		res.layer("attest.bytes_per_session", ratio(uint64(total), uint64(open.attempted)))
		res.spans(recs)
	}
	setup, err := repeatSetups(firstSetup, func() error {
		again, err := setupAttest(cfg.seed, workers)
		if err == nil {
			again.close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.e2e("setup_s", setup)
	return res, nil
}
