package sdp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/shield"
)

func smallConfig() NodeConfig {
	return NodeConfig{
		Slots: 4, SlotBytes: 64 << 10, AuthBlock: 4096,
		Engines: 4, SBox: aesx.SBox16x, MAC: shield.PMAC,
		BufferBytes: 16 << 10,
	}
}

func newNode(t *testing.T) *Node {
	t.Helper()
	dek := bytes.Repeat([]byte{0x21}, 32)
	n, err := NewNode(smallConfig(), dek, LineRateParams())
	if err != nil {
		t.Fatal(err)
	}
	n.ProvisionUserKeys(map[string][]byte{
		"alice": []byte("alice-key"),
		"bob":   []byte("bob-key"),
	})
	return n
}

func TestPutGetRoundTrip(t *testing.T) {
	n := newNode(t)
	payload := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := n.Put("alice", "health.rec", payload); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get("alice", "health.rec")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("file corrupted through the storage node")
	}
}

func TestMultipleFilesAndOverwrite(t *testing.T) {
	n := newNode(t)
	f1 := bytes.Repeat([]byte{1}, 5000)
	f2 := bytes.Repeat([]byte{2}, 7000)
	if err := n.Put("alice", "a", f1); err != nil {
		t.Fatal(err)
	}
	if err := n.Put("bob", "b", f2); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get("bob", "b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f2) {
		t.Fatal("bob's file corrupted")
	}
	// Overwrite reuses the slot.
	f1b := bytes.Repeat([]byte{3}, 4000)
	if err := n.Put("alice", "a", f1b); err != nil {
		t.Fatal(err)
	}
	got, _ = n.Get("alice", "a")
	if !bytes.Equal(got, f1b) {
		t.Fatal("overwrite lost data")
	}
}

// TestGDPRAccessPolicy: a user can neither read nor overwrite another
// user's file, and unprovisioned users get nothing — on every kind of
// node.
func TestGDPRAccessPolicy(t *testing.T) {
	writeBack := smallConfig()
	writeBack.WriteBack = true
	for _, m := range []struct {
		name string
		cfg  NodeConfig
	}{
		{"flat", smallConfig()},
		{"write-back", writeBack},
		{"oblivious", obliviousNodeConfig()},
		{"zoned", tenantZoneConfig()},
	} {
		t.Run(m.name, func(t *testing.T) {
			n, err := NewNode(m.cfg, bytes.Repeat([]byte{0x21}, 32), LineRateParams())
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			n.ProvisionUserKeys(map[string][]byte{
				"alice": []byte("alice-key"),
				"bob":   []byte("bob-key"),
			})
			records := []byte("alice's medical records")
			if err := n.Put("alice", "secret", records); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Get("bob", "secret"); err == nil {
				t.Fatal("bob read alice's file")
			}
			if err := n.Put("bob", "secret", []byte("bob's overwrite")); !errors.Is(err, ErrRejected) {
				t.Fatalf("bob overwrote alice's file: %v", err)
			}
			if got, err := n.Get("alice", "secret"); err != nil || !bytes.Equal(got, records) {
				t.Fatalf("alice lost her file: %q, %v", got, err)
			}
			if _, err := n.Get("mallory", "secret"); err == nil {
				t.Fatal("unprovisioned user served")
			}
			if err := n.Put("mallory", "x", []byte("data")); err == nil {
				t.Fatal("unprovisioned user stored a file")
			}
		})
	}
}

func TestStorageIsEncryptedAtRest(t *testing.T) {
	n := newNode(t)
	secret := bytes.Repeat([]byte("GDPR-PROTECTED"), 300)
	n.Put("alice", "f", secret)
	dump, err := n.DRAM().RawRead(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(dump, []byte("GDPR-PROTECTED")) {
		t.Fatal("plaintext visible on the storage device")
	}
}

func TestStorageTamperDetected(t *testing.T) {
	n := newNode(t)
	payload := make([]byte, 20_000)
	rand.New(rand.NewSource(2)).Read(payload)
	n.Put("alice", "f", payload)
	// Adversary (cloud operator) flips a bit in the stored ciphertext.
	n.Shield().InvalidateClean()
	raw, _ := n.DRAM().RawRead(storeBase, 1)
	raw[0] ^= 1
	n.DRAM().RawWrite(storeBase, raw)
	if _, err := n.Get("alice", "f"); err == nil {
		t.Fatal("tampered storage served to the application")
	}
}

func TestNodeCapacity(t *testing.T) {
	n := newNode(t)
	for i := 0; i < 4; i++ {
		if err := n.Put("alice", string(rune('a'+i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Put("alice", "overflow", []byte("x")); err == nil {
		t.Fatal("node accepted file beyond capacity")
	}
	big := make([]byte, smallConfig().SlotBytes+1)
	if err := n.Put("alice", "a", big); err == nil {
		t.Fatal("oversized file accepted")
	}
}

func TestNodeConfigValidation(t *testing.T) {
	bad := smallConfig()
	bad.Slots = 0
	if _, err := NewNode(bad, make([]byte, 32), LineRateParams()); err == nil {
		t.Fatal("zero-slot node built")
	}
	bad = smallConfig()
	bad.SlotBytes = 1000 // not a multiple of AuthBlock
	if _, err := NewNode(bad, make([]byte, 32), LineRateParams()); err == nil {
		t.Fatal("misaligned slot size accepted")
	}
}

func TestUserLayerKeySeparation(t *testing.T) {
	n := newNode(t)
	data := []byte("same plaintext")
	buf1 := append([]byte(nil), data...)
	buf2 := append([]byte(nil), data...)
	n.sealForUser("alice", "f", buf1)
	n.sealForUser("bob", "f", buf2)
	if bytes.Equal(buf1, buf2) {
		t.Fatal("different users share the file encryption layer")
	}
	n.sealForUser("alice", "f", buf1)
	if !bytes.Equal(buf1, data) {
		t.Fatal("user layer is not an involution")
	}
}

// TestTable2Shape asserts the paper's Table 2 shape: the two HMAC configs
// are equal and heavy; PMAC cuts the overhead sharply; more engines
// saturate toward a small floor. Bands are centred on the paper's
// 298/297/59/20/20% with model tolerance.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1MB sweep in -short mode")
	}
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	ov := make([]float64, 5)
	for i, r := range rows {
		ov[i] = r.Overhead
		t.Logf("%-24s %.0f%%", r.Label, r.Overhead*100)
	}
	within := func(i int, lo, hi float64) {
		if ov[i] < lo || ov[i] > hi {
			t.Errorf("config %d overhead %.0f%% outside [%.0f%%, %.0f%%]", i, ov[i]*100, lo*100, hi*100)
		}
	}
	within(0, 2.5, 3.5) // paper: 298%
	within(1, 2.5, 3.5) // paper: 297%
	within(2, 0.45, 0.90)
	within(3, 0.15, 0.45)
	within(4, 0.10, 0.35)
	if diff := ov[0] - ov[1]; diff < -0.05 || diff > 0.05 {
		t.Errorf("HMAC configs should be nearly identical (S-box moot): %.2f vs %.2f", ov[0], ov[1])
	}
	if !(ov[1] > ov[2] && ov[2] > ov[3] && ov[3] >= ov[4]) {
		t.Errorf("overheads not monotone down the sweep: %v", ov)
	}
}

// TestStorageRollbackDetected: a malicious operator restoring a previous
// version of a stored file (e.g. un-deleting a record after a GDPR
// erasure) is caught by the store region's freshness counters.
func TestStorageRollbackDetected(t *testing.T) {
	n := newNode(t)
	v1 := bytes.Repeat([]byte{0xA1}, 8192)
	if err := n.Put("alice", "f", v1); err != nil {
		t.Fatal(err)
	}
	// Snapshot the stored ciphertext and its tags.
	layout, err := n.Shield().Layout("store")
	if err != nil {
		t.Fatal(err)
	}
	snapData, _ := n.DRAM().Snapshot(layout.DataBase, 3*4096)
	snapTags, _ := n.DRAM().Snapshot(layout.TagBase, 3*shield.TagSize)

	// Overwrite (the "erasure").
	v2 := bytes.Repeat([]byte{0xB2}, 8192)
	if err := n.Put("alice", "f", v2); err != nil {
		t.Fatal(err)
	}
	n.Shield().InvalidateClean()

	// Roll back both data and tags.
	n.DRAM().Restore(layout.DataBase, snapData)
	n.DRAM().Restore(layout.TagBase, snapTags)
	if _, err := n.Get("alice", "f"); err == nil {
		t.Fatal("rolled-back file served to the application")
	}
}
