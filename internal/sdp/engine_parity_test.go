package sdp

import (
	"bytes"
	"fmt"
	"testing"
)

// TestClusterEngineParity pins the engine layer's contract at the service
// tier: the functional crypto engine (scalar reference vs hardware-backed
// stdlib) is invisible to the SDP. The same workload run on either engine
// returns identical plaintext AND identical simulated cycle accounting —
// the cycle model always charges the paper's FPGA engine costs, so
// swapping the functional implementation changes real MB/s only.
func TestClusterEngineParity(t *testing.T) {
	run := func(eng string) ([][]byte, ClusterStats) {
		cfg := clusterConfig(3)
		cfg.Params = LineRateParams()
		cfg.Params.CryptoEngine = eng
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.RegisterUser("alice", []byte("alice-key")); err != nil {
			t.Fatal(err)
		}
		cl := newClient(t, c)
		var got [][]byte
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("file-%d", i)
			payload := bytes.Repeat([]byte{byte(i + 1)}, 2000+i*777)
			if err := cl.Put("alice", name, payload); err != nil {
				t.Fatal(err)
			}
			data, err := cl.Get("alice", name, nil)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, data)
		}
		return got, c.Stats()
	}
	scalarData, scalarStats := run("scalar")
	hwData, hwStats := run("hardware")
	for i := range scalarData {
		if !bytes.Equal(scalarData[i], hwData[i]) {
			t.Errorf("file %d: plaintext differs between engines", i)
		}
	}
	if scalarStats != hwStats {
		t.Errorf("simulated accounting differs between engines:\n scalar  %+v\n hardware %+v",
			scalarStats, hwStats)
	}
}
