package sdp

import (
	"crypto/rand"
	"fmt"
)

// Table2Row is one column of the paper's Table 2: a Shield configuration
// and the measured steady-state throughput overhead for 1 MB file accesses.
type Table2Row struct {
	Config   NodeConfig
	Label    string
	Overhead float64 // fractional: 2.98 means +298%
}

// MeasureOverhead runs the steady-state file-access measurement of §6.2.3
// on one node configuration: a 1 MB Get, measured at the Shield, compared
// to the unsecured key-value store streaming the same file at line rate
// (cut-through, one pass over the fabric).
func MeasureOverhead(cfg NodeConfig) (Table2Row, error) {
	params := LineRateParams()
	dek := make([]byte, 32)
	rand.Read(dek)
	node, err := NewNode(cfg, dek, params)
	if err != nil {
		return Table2Row{}, err
	}
	defer node.Close()
	node.ProvisionUserKeys(map[string][]byte{"alice": []byte("alice-key-0123456789abcdef000000")})
	fileBytes := cfg.SlotBytes - cfg.AuthBlock // leave headroom in the slot
	payload := make([]byte, fileBytes)
	rand.Read(payload)
	if err := node.Put("alice", "records.db", payload); err != nil {
		return Table2Row{}, err
	}
	// Steady state: measure the Get path only.
	node.ResetStats()
	got, err := node.Get("alice", "records.db")
	if err != nil {
		return Table2Row{}, err
	}
	for i := range got {
		if got[i] != payload[i] {
			return Table2Row{}, fmt.Errorf("sdp: byte %d corrupted through the node: %w", i, ErrBadResponse)
		}
	}
	secure := node.Report().MemoryCycles()

	// Baseline: the unsecured KV store moves the file once at line rate.
	chunks := (fileBytes + cfg.AuthBlock - 1) / cfg.AuthBlock
	bare := uint64(chunks) * params.DRAMCycles(cfg.AuthBlock)

	row := Table2Row{
		Config:   cfg,
		Label:    fmt.Sprintf("%dx Eng / %s / %s", cfg.Engines, cfg.SBox, cfg.MAC),
		Overhead: float64(secure)/float64(bare) - 1,
	}
	return row, nil
}

// Table2 regenerates the full sweep.
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, cfg := range Table2Configs() {
		row, err := MeasureOverhead(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
