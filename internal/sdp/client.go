package sdp

import (
	"bytes"
	"context"
	"fmt"
	"strconv"

	"shef/internal/faultinject"
	"shef/internal/profiling"
	"shef/internal/shield"
)

// Interned shard-index labels for the profiling taxonomy: formatting the
// index per operation would put an allocation on the serving hot path
// even though labels only matter while a harness runs.
var shardLabels = [...]string{"0", "1", "2", "3", "4", "5", "6", "7",
	"8", "9", "10", "11", "12", "13", "14", "15"}

func shardLabel(i int) string {
	if i >= 0 && i < len(shardLabels) {
		return shardLabels[i]
	}
	return strconv.Itoa(i)
}

// doOp wraps one client operation in the profiling label taxonomy
// (sdp-op=put|get, sdp-shard=home) when a harness is active. Its two
// callers, Client.write and Client.read, branch on profiling.Enabled()
// first, so the disabled path performs the operation directly — no
// closure escapes, no allocations, no label building.
//
//shef:guarded
func doOp(op string, shard int, f func() error) error {
	var err error
	profiling.Do(context.Background(), func() { err = f() },
		"sdp-op", op, "sdp-shard", shardLabel(shard))
	return err
}

// TLSSession is a Data Owner endpoint onto one Storage Node's tls
// region: a persistent region sealer plus staging buffers, built once
// per session instead of per message. It moves the client half of the
// TLS path — sealing requests, opening responses — onto the client's
// own goroutine, so the node's serialised section carries only node
// work (the paper's trust split: the Data Owner's endpoint is not part
// of the Storage Node).
//
// A TLSSession is not safe for concurrent use; hold one per goroutine.
type TLSSession struct {
	rs    *shield.RegionSealer
	chunk int
	ct    []byte
	tags  []byte
	plain []byte
}

// NewTLSSession opens a Data Owner endpoint for this node's tls region.
// (In the full protocol the Data Owner holds the session DEK from
// attestation; here it comes from the node handle.)
func (n *Node) NewTLSSession() (*TLSSession, error) {
	return newTLSSession(n.tlsCfg, n.tlsLayout.RegionID, n.dek)
}

// newTLSSession builds a session from what the Data Owner holds: the tls
// region's configuration and ID and the shard's session DEK. No live
// node is needed, so a client can open sessions to a crashed shard.
func newTLSSession(cfg shield.RegionConfig, regionID uint32, dek []byte) (*TLSSession, error) {
	rs, err := shield.NewRegionSealer(cfg, regionID, dek)
	if err != nil {
		return nil, err
	}
	size := int(cfg.Size)
	return &TLSSession{
		rs:    rs,
		chunk: cfg.ChunkSize,
		ct:    make([]byte, size),
		tags:  make([]byte, size/cfg.ChunkSize*shield.TagSize),
		plain: make([]byte, size),
	}, nil
}

// Seal encrypts payload into the session's staging buffers in the tls
// region's chunk format and returns the ciphertext and tag extents,
// valid until the next Seal. Feed them to Node.PutSealed.
func (t *TLSSession) Seal(payload []byte) (ct, tags []byte, err error) {
	aligned := alignUp(len(payload), t.chunk)
	if aligned > len(t.plain) || len(payload) == 0 {
		return nil, nil, rejectf("sdp: payload of %d bytes outside the tls region's 1..%d", len(payload), len(t.plain))
	}
	copy(t.plain, payload)
	clear(t.plain[len(payload):aligned])
	k := aligned / t.chunk
	if err := t.rs.SealRange(0, 0, t.ct[:aligned], t.tags[:k*shield.TagSize], t.plain[:aligned]); err != nil {
		return nil, nil, err
	}
	return t.ct[:aligned], t.tags[:k*shield.TagSize], nil
}

// Open verifies and decrypts a sealed response extent (from
// Node.GetSealed) and appends the size payload bytes to dst.
func (t *TLSSession) Open(dst, ct, tags []byte, size int) ([]byte, error) {
	p, err := t.open(ct, tags, size)
	if err != nil {
		return nil, err
	}
	return append(dst[:0], p...), nil
}

// open verifies and decrypts a sealed extent into the session's own
// plaintext buffer, valid until the next Seal or open.
func (t *TLSSession) open(ct, tags []byte, size int) ([]byte, error) {
	aligned := alignUp(size, t.chunk)
	if aligned > len(t.plain) || size < 0 {
		return nil, fmt.Errorf("sdp: sealed response of %d bytes outside the tls region: %w", size, ErrBadResponse)
	}
	k := aligned / t.chunk
	if len(ct) < aligned || len(tags) < k*shield.TagSize {
		return nil, fmt.Errorf("sdp: sealed response extent truncated: %w", ErrBadResponse)
	}
	if err := t.rs.OpenRange(0, 0, t.plain[:aligned], ct[:aligned], tags[:k*shield.TagSize]); err != nil {
		return nil, err
	}
	return t.plain[:size], nil
}

// Buffers exposes the session's reusable ciphertext/tag staging buffers,
// sized to the full tls region — the transfer buffers a caller hands to
// Node.GetSealed before opening the result with the same session.
func (t *TLSSession) Buffers() (ct, tags []byte) { return t.ct, t.tags }

// Client is a Data Owner endpoint onto the whole fleet: one TLSSession
// per shard, the client-side cryptography on the caller's goroutine, and
// every request routed through the cluster's replica engine — a
// single-copy fleet is the one-replica case of it. Not safe for
// concurrent use; create one Client per worker.
type Client struct {
	c        *Cluster
	sessions []*TLSSession
}

// NewClient opens a Data Owner endpoint with a TLS session to every
// shard. Sessions are keyed by each shard's stable session DEK, so they
// survive shard crashes and restarts, and a client can join while a
// shard is down.
func (c *Cluster) NewClient() (*Client, error) {
	cl := &Client{c: c, sessions: make([]*TLSSession, len(c.slots))}
	for i, slot := range c.slots {
		t, err := newTLSSession(slot.tlsCfg, slot.tlsID, slot.dek)
		if err != nil {
			return nil, fmt.Errorf("sdp: shard %d session: %w", i, err)
		}
		cl.sessions[i] = t
	}
	return cl, nil
}

// write runs one write through the replica engine, labelled for the
// profiling harness when one is active.
func (cl *Client) write(ctx context.Context, user, name string, do replicaOp) error {
	if profiling.Enabled() {
		return doOp("put", cl.c.ShardFor(name), func() error {
			return cl.c.writeReplicas(ctx, user, name, do)
		})
	}
	return cl.c.writeReplicas(ctx, user, name, do)
}

// read is write's counterpart for reads.
func (cl *Client) read(ctx context.Context, name string, do replicaOp) error {
	if profiling.Enabled() {
		return doOp("get", cl.c.ShardFor(name), func() error {
			return cl.c.readReplicas(ctx, name, do)
		})
	}
	return cl.c.readReplicas(ctx, name, do)
}

// Put seals the payload on the client's goroutine and stores it on the
// file's replica set. Each replica gets its own seal — sessions are
// per-shard — so a corrupted copy on one replica can never authenticate
// on another.
func (cl *Client) Put(user, name string, payload []byte) error {
	return cl.PutCtx(context.Background(), user, name, payload)
}

// PutCtx is Put with caller-controlled cancellation. An injected
// corruption fault mangles the sealed image in transit: the node's tls
// engine set refuses it, the attempt fails authenticated-closed, and the
// retry re-seals cleanly.
func (cl *Client) PutCtx(ctx context.Context, user, name string, payload []byte) error {
	return cl.write(ctx, user, name, func(shard int, n *Node, fi faultinject.Result) error {
		ct, tags, err := cl.sessions[shard].Seal(payload)
		if err != nil {
			return reject(err)
		}
		if fi.Corrupt {
			faultinject.CorruptBytes(ct, fi.CorruptSeed)
		}
		return n.PutSealed(user, name, len(payload), ct, tags)
	})
}

// PutSealed stores a pre-sealed image (from Seal on the file's home
// shard session) — the loadgen path, where one sealed request image is
// replayed many times without resealing. The home replica stores the
// image as given; every other replica seals under its own session DEK,
// so the image is opened once for them.
func (cl *Client) PutSealed(user, name string, size int, ct, tags []byte) error {
	home := cl.c.ShardFor(name)
	var payload []byte
	if cl.c.cfg.Replicas > 1 {
		p, err := cl.sessions[home].open(ct, tags, size)
		if err != nil {
			cl.c.errs.Add(1)
			return err
		}
		payload = p
	}
	return cl.write(context.Background(), user, name, func(shard int, n *Node, fi faultinject.Result) error {
		sct, stags := ct, tags
		if shard != home {
			var err error
			if sct, stags, err = cl.sessions[shard].Seal(payload); err != nil {
				return reject(err)
			}
		}
		if fi.Corrupt {
			if shard == home {
				sct = bytes.Clone(sct) // the caller's image must survive for its replays
			}
			faultinject.CorruptBytes(sct, fi.CorruptSeed)
		}
		return n.PutSealed(user, name, size, sct, stags)
	})
}

// Session returns the client's TLS session for the shard that owns name.
func (cl *Client) Session(name string) *TLSSession {
	return cl.sessions[cl.c.ShardFor(name)]
}

// Get fetches a file, opening the sealed response on the client's
// goroutine, and appends the payload to dst. The read falls back replica
// by replica: a replica whose sealed response fails authentication
// (corrupted storage or transit) is treated as a failed replica and the
// next one serves.
func (cl *Client) Get(user, name string, dst []byte) ([]byte, error) {
	return cl.GetCtx(context.Background(), user, name, dst)
}

// GetCtx is Get with caller-controlled cancellation.
func (cl *Client) GetCtx(ctx context.Context, user, name string, dst []byte) ([]byte, error) {
	var out []byte
	err := cl.read(ctx, name, func(shard int, n *Node, fi faultinject.Result) error {
		t, size, err := cl.fetch(shard, n, user, name, fi)
		if err != nil {
			return err
		}
		out, err = t.Open(dst, t.ct, t.tags, size)
		return err
	})
	return out, err
}

// GetSealed fetches a file's sealed response into the serving shard's
// session staging buffers without opening it — the loadgen path,
// measuring server-side serving with the client-side open sampled
// separately. Returns the payload size and the session holding the
// sealed bytes (whichever replica served the read).
func (cl *Client) GetSealed(user, name string) (int, *TLSSession, error) {
	var size int
	var t *TLSSession
	err := cl.read(context.Background(), name, func(shard int, n *Node, fi faultinject.Result) error {
		var err error
		t, size, err = cl.fetch(shard, n, user, name, fi)
		return err
	})
	return size, t, err
}

// fetch reads a file's sealed response from one replica into that
// shard's session buffers, applying an injected corruption in transit.
func (cl *Client) fetch(shard int, n *Node, user, name string, fi faultinject.Result) (*TLSSession, int, error) {
	t := cl.sessions[shard]
	size, err := n.GetSealed(user, name, t.ct, t.tags)
	if err != nil {
		return nil, 0, err
	}
	if fi.Corrupt {
		faultinject.CorruptBytes(t.ct[:alignUp(size, t.chunk)], fi.CorruptSeed)
	}
	return t, size, nil
}
