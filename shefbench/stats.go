package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"

	"shef/internal/crypto/engine"
)

// quantile is the nearest-rank q-quantile of v (sorted in place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(q*float64(len(v))+0.999999) - 1
	return v[min(max(i, 0), len(v)-1)]
}

func median(v []float64) float64 {
	w := slices.Clone(v)
	slices.Sort(w)
	n := len(w)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return w[n/2]
	}
	return (w[n/2-1] + w[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// goStats reads the Go runtime counters the per-layer table uses.
type goStats struct {
	allocBytes, gcCycles uint64
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

// readGo reads the runtime counters and the bytes the runtime holds
// from the OS (mapped minus released to the OS).
func readGo() (goStats, uint64) {
	s := slices.Clone(goSamples)
	metrics.Read(s)
	return goStats{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()},
		s[2].Value.Uint64() - s[3].Value.Uint64()
}

// sampler polls the runtime's memory footprint (and any extra probes)
// every few milliseconds while a measurement window runs.
type sampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	mu    sync.Mutex
	peak  uint64
	probe func()
}

// startSampler first collects garbage and returns free memory to the
// OS, so the peak describes the measured window rather than set-up.
func startSampler(probe func()) *sampler {
	debug.FreeOSMemory()
	s := &sampler{stop: make(chan struct{}), probe: probe}
	s.poll()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.poll()
			}
		}
	}()
	return s
}

func (s *sampler) poll() {
	_, held := readGo()
	if s.probe != nil {
		s.probe()
	}
	s.mu.Lock()
	s.peak = max(s.peak, held)
	s.mu.Unlock()
}

// finish stops the sampler and returns the peak footprint in MB.
func (s *sampler) finish() float64 {
	close(s.stop)
	s.done.Wait()
	s.poll()
	return float64(s.peak) / (1 << 20)
}

// hostInfo is the fingerprint every result document carries: numbers
// are comparable only between runs on like hosts and toolchains.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
	AESNI      bool   `json:"aes_ni"`
	SHANI      bool   `json:"sha_ni"`
	Engine     string `json:"engine"`
	GoVersion  string `json:"go"`
	OSArch     string `json:"os_arch"`
	Seed       uint64 `json:"seed"`
}

func fingerprint(seed uint64) hostInfo {
	f := engine.Detect()
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		AESNI:      f.AESNI,
		SHANI:      f.SHANI,
		Engine:     engine.Select().String(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Seed:       seed,
	}
}

// cpuModel reads the CPU model name where the OS publishes it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
