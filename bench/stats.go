package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is the spread of one metric's samples, the shape every number in
// the result JSON carries.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the spread of vs. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the exclusive method), so a spread
// computed here equals the one the acceptance check computes.
func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	out := summary{N: len(s), Min: s[0], Max: s[len(s)-1]}
	out.Q1, out.Median, out.Q3 = quantile(s, 1), quantile(s, 2), quantile(s, 3)
	return out
}

// quantile returns the i-th quartile cut point of sorted s.
func quantile(s []float64, i int) float64 {
	m := len(s)
	if m == 1 {
		return s[0]
	}
	j := i * (m + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > m-1 {
		j = m - 1
	}
	delta := float64(i*(m+1) - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

func median(vs []float64) float64 { return summarize(vs).Median }

func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return ratio(sum, float64(len(vs)))
}

// meanWithoutSlowest is the mean of vs with its largest value left out.
func meanWithoutSlowest(vs []float64) float64 {
	if len(vs) < 2 {
		return median(vs)
	}
	sum, slowest := 0.0, vs[0]
	for _, v := range vs {
		sum += v
		slowest = max(slowest, v)
	}
	return (sum - slowest) / float64(len(vs)-1)
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// percentile returns the p-quantile (0..1) of sorted s by nearest rank.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(p * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// ratio is a/b, 0 when b is 0: a per-record figure of a phase that saw no
// records is reported as 0 rather than NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procStatusMiB reads a kB field (VmHWM, VmRSS) of /proc/self/status.
func procStatusMiB(field string) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	mallocs, bytes, gcPauseNS uint64
	gcCycles                  uint32
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := readMem()
	return memDelta{
		mallocs:   m1.Mallocs - m0.Mallocs,
		bytes:     m1.TotalAlloc - m0.TotalAlloc,
		gcPauseNS: m1.PauseTotalNs - m0.PauseTotalNs,
		gcCycles:  m1.NumGC - m0.NumGC,
	}
}

// environment is the block of the result JSON that says where the numbers
// were taken.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	TmpFS      string `json:"tmp_fs"`
	Commit     string `json:"commit"`
}

func readEnvironment(root, tmpDir string) environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     "unknown",
		TmpFS:      fsType(tmpDir),
		Commit:     gitHead(root),
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	return env
}

// fsType names the filesystem holding dir: fsync cost, and with it every
// durable number, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// gitHead reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func gitHead(root string) string {
	raw, err := os.ReadFile(root + "/.git/HEAD")
	if err != nil {
		return "unknown"
	}
	head := strings.TrimSpace(string(raw))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if raw, err = os.ReadFile(root + "/.git/" + ref); err == nil {
		return strings.TrimSpace(string(raw))
	}
	if raw, err = os.ReadFile(root + "/.git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+ref); ok {
				return hash
			}
		}
	}
	return "unknown"
}
