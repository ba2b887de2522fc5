package sdp

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestClientSteadyStateAllocs pins the serving path's allocation budget:
// once every file is stored and read, a Client Put or Get allocates
// nothing at one replica (the lookup-slot collision between store page 0
// and the tls region included), and at three replicas a Get allocates
// nothing and a Put at most once.
func TestClientSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	for _, tc := range []struct {
		replicas       int
		maxGet, maxPut float64
	}{
		{1, 0, 0},
		{3, 0, 1},
	} {
		t.Run(fmt.Sprintf("replicas=%d", tc.replicas), func(t *testing.T) {
			cfg := clusterConfig(3)
			cfg.Replicas = tc.replicas
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.RegisterUser("alice", []byte("alice-key")); err != nil {
				t.Fatal(err)
			}
			cl := newClient(t, c)
			payload := bytes.Repeat([]byte{0x42}, 4096)
			var names []string
			for i := 0; i < 6; i++ {
				names = append(names, fmt.Sprintf("file-%d", i))
			}
			got := make([]byte, 0, len(payload))
			step := func() {
				for _, name := range names {
					if err := cl.Put("alice", name, payload); err != nil {
						t.Fatal(err)
					}
					if got, err = cl.Get("alice", name, got); err != nil {
						t.Fatal(err)
					}
				}
			}
			step()
			for _, name := range names {
				put := testing.AllocsPerRun(50, func() {
					if err := cl.Put("alice", name, payload); err != nil {
						t.Fatal(err)
					}
				})
				get := testing.AllocsPerRun(50, func() {
					if got, err = cl.Get("alice", name, got); err != nil {
						t.Fatal(err)
					}
				})
				if put > tc.maxPut || get > tc.maxGet {
					t.Errorf("%s: Put %v allocs/op (max %v), Get %v allocs/op (max %v)",
						name, put, tc.maxPut, get, tc.maxGet)
				}
			}
		})
	}
}

// TestNewClientWhileShardDown: a Data Owner can join a degraded fleet,
// and reads a file whose home shard is the crashed one from a replica.
func TestNewClientWhileShardDown(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	payload := bytes.Repeat([]byte{0x6B}, 3000)
	if err := newClient(t, c).Put("alice", "doc", payload); err != nil {
		t.Fatal(err)
	}
	c.CrashShard(c.ShardFor("doc"))
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient with one shard down: %v", err)
	}
	got, err := cl.Get("alice", "doc", nil)
	if err != nil {
		t.Fatalf("read of a file homed on the crashed shard: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read returned wrong bytes")
	}
}

// TestClusterLeavesNoGoroutines runs fleets through boot, traffic, a
// crash and a restart, closes them, and checks that the goroutine count
// returns to where it started: Close retires the workers of every node,
// the ones CrashShard and RestartShard dropped included.
func TestClusterLeavesNoGoroutines(t *testing.T) {
	run := func() {
		c, err := NewCluster(replicatedConfig(3, 3))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.RegisterUser("alice", []byte("alice-key")); err != nil {
			t.Fatal(err)
		}
		cl := newClient(t, c)
		payload := bytes.Repeat([]byte{0x19}, 16<<10)
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("file-%d", i)
			if err := cl.Put("alice", name, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Get("alice", name, nil); err != nil {
				t.Fatal(err)
			}
		}
		c.CrashShard(1)
		if err := cl.Put("alice", "file-0", payload); err != nil {
			t.Fatal(err)
		}
		if err := c.RestartShard(1); err != nil {
			t.Fatal(err)
		}
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	run() // one-time process state (crypto engine selection) settles first
	start := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		run()
	}
	// Retired workers exit asynchronously once their task channel closes.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after 3 fleets, %d before: closed clusters leak", n, start)
	}
}
