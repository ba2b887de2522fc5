package pmacx

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestDeterministic(t *testing.T) {
	m, err := New(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("deterministic MAC over a chunk")
	if m.Sum(msg) != m.Sum(msg) {
		t.Fatal("PMAC not deterministic")
	}
}

// TestKnownTags pins tags recorded from the one-block-at-a-time SumWith,
// at lengths either side of the block and batch boundaries and at the
// 4096+12-byte MAC input of a 4 KB chunk, so that the batched loop cannot
// silently change the MAC.
func TestKnownTags(t *testing.T) {
	m, err := New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		n   int
		tag string
	}{
		{0, "206e9ba3e9476a2e4dee7b57ea93fc93"},
		{1, "6d20a7adb58677e60a426f1f1da88c0b"},
		{16, "d136b3650ca2b2e420ab8ff579bc5d61"},
		{17, "08389c6be83621e2a9f06b254c30b0c3"},
		{255, "6e9617c7cdc74bf2aede5c73e6a05151"},
		{256, "870833822295590d94d932a67ff4c8c7"},
		{257, "6bda0fce443d214d8fef5f0567fb669a"},
		{4108, "ba0dca6360a28b68901ed58f145661cb"},
	} {
		msg := make([]byte, c.n)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		if got := m.Sum(msg); hex.EncodeToString(got[:]) != c.tag {
			t.Errorf("len %d: tag %x, want %s", c.n, got, c.tag)
		}
	}
}

func TestKeySeparation(t *testing.T) {
	k1 := make([]byte, 16)
	k2 := make([]byte, 16)
	k2[0] = 1
	m1, _ := New(k1)
	m2, _ := New(k2)
	msg := []byte("same message, different keys")
	if m1.Sum(msg) == m2.Sum(msg) {
		t.Fatal("tags collide across keys")
	}
}

func TestVerify(t *testing.T) {
	m, _ := New(make([]byte, 32))
	msg := bytes.Repeat([]byte{0xAB}, 4096)
	tag := m.Sum(msg)
	if !m.Verify(msg, tag) {
		t.Fatal("valid tag rejected")
	}
	msg[100] ^= 1
	if m.Verify(msg, tag) {
		t.Fatal("tampered message accepted")
	}
}

// Property: messages differing in any byte, or by length, yield different
// tags (no trivial padding/length collisions).
func TestNoLengthExtensionCollision(t *testing.T) {
	m, _ := New([]byte("0123456789abcdef"))
	f := func(msg []byte) bool {
		t1 := m.Sum(msg)
		t2 := m.Sum(append(msg, 0x00))
		return t1 != t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFullBlockVsPadded(t *testing.T) {
	m, _ := New(make([]byte, 16))
	// A 16-byte message (full final block) vs the same 16 bytes followed by
	// the 10* pad as explicit data must not collide.
	full := bytes.Repeat([]byte{0x42}, 16)
	padded := append(append([]byte{}, full...), 0x80)
	if m.Sum(full) == m.Sum(padded[:17]) {
		t.Fatal("full-block and padded messages collide")
	}
}

func TestEmptyAndSingleByte(t *testing.T) {
	m, _ := New(make([]byte, 16))
	if m.Sum(nil) == m.Sum([]byte{0}) {
		t.Fatal("empty and single-zero-byte messages collide")
	}
}

func TestBitFlipSensitivity(t *testing.T) {
	m, _ := New([]byte("kkkkkkkkkkkkkkkk"))
	f := func(msg []byte, pos uint16) bool {
		if len(msg) == 0 {
			return true
		}
		orig := m.Sum(msg)
		i := int(pos) % len(msg)
		bit := byte(1) << (pos % 8)
		msg[i] ^= bit
		return m.Sum(msg) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleHalveInverse(t *testing.T) {
	f := func(b [16]byte) bool {
		return halve(double(b)) == b && double(halve(b)) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCyclesScaleWithEngines encodes the paper's reason for PMAC: unlike
// HMAC, adding engines increases single-stream MAC throughput.
func TestCyclesScaleWithEngines(t *testing.T) {
	const aesBlk = 20 // AES-128/16x
	c1 := Cycles(4096, 1, aesBlk)
	c4 := Cycles(4096, 4, aesBlk)
	c8 := Cycles(4096, 8, aesBlk)
	if !(c1 > c4 && c4 > c8) {
		t.Fatalf("PMAC cycles do not scale: 1=%d 4=%d 8=%d", c1, c4, c8)
	}
	// Near-linear scaling in the parallel phase.
	if float64(c1)/float64(c4) < 3.0 {
		t.Errorf("4-engine speedup %.2fx, want close to 4x", float64(c1)/float64(c4))
	}
	if Cycles(0, 0, aesBlk) == 0 {
		t.Error("zero-length message should still cost a tag block")
	}
}

func BenchmarkPMAC4K(b *testing.B) {
	m, _ := New(make([]byte, 16))
	msg := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		m.Sum(msg)
	}
}
