package shield

import (
	"bytes"
	"runtime"
	"testing"

	"shef/internal/axi"
	"shef/internal/mem"
	"shef/internal/perf"
)

// TestBaselineIsPlainEngineSet drives the baseline through every port
// method and checks what makes it the unsecured twin of a Shield: DRAM
// holds the plaintext at the region's own addresses, no tag area is
// touched, no worker goroutine starts, and there is no gather path.
func TestBaselineIsPlainEngineSet(t *testing.T) {
	cfg := simpleConfig()
	dram := mem.NewDRAM(1<<22, perf.Default())
	b, err := NewBaseline(cfg, dram, perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any(b).(axi.Gatherer); ok {
		t.Error("baseline implements axi.Gatherer")
	}
	before := runtime.NumGoroutine()

	data := bytes.Repeat([]byte("plaintext-chunk!"), 8*512/16) // 8 chunks
	if _, err := b.WriteStream(0, data); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteBurst(1<<16+100, data[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := dram.RawRead(0, len(data)); !bytes.Equal(got, data) {
		t.Error("streamed write did not land in DRAM as plaintext")
	}
	if got, _ := dram.RawRead(1<<16+100, 1000); !bytes.Equal(got, data[:1000]) {
		t.Error("buffered write did not land in DRAM as plaintext after Flush")
	}
	if tags, _ := dram.RawRead(2<<16, 4096); !bytes.Equal(tags, make([]byte, 4096)) {
		t.Error("baseline wrote past its regions (tags?)")
	}

	got := make([]byte, len(data))
	if _, err := b.ReadStream(0, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadStream = %v, data match %v", err, bytes.Equal(got, data))
	}
	if _, err := b.ReadBurst(1<<16+100, got[:1000]); err != nil || !bytes.Equal(got[:1000], data[:1000]) {
		t.Fatalf("ReadBurst = %v", err)
	}
	if b.MemCycles() == 0 {
		t.Error("baseline charged no memory cycles")
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("baseline started %d goroutines", n-before)
	}
	if _, err := b.ReadBurst(1<<16-4, make([]byte, 8)); err == nil {
		t.Error("burst crossing a region boundary accepted")
	}
	if _, err := b.ReadBurst(3<<16, make([]byte, 8)); err == nil {
		t.Error("burst outside every region accepted")
	}
}
