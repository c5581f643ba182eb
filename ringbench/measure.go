package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs;
// xs need not be sorted and is left untouched.  Failed operations enter as
// +Inf, so a percentile that reaches them reads as infinitely late.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// finite maps +Inf (a failed operation's latency) to the largest float so
// the value stays encodable as JSON.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts nanoseconds to float microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// timeSetups runs set-up n times and returns the durations; the set-up's
// result from the last call is the one the caller keeps.
func timeSetups(n int, setup func(last bool) error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := setup(i == n-1); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// sampleRSS reads the peak resident set every interval and resets the
// kernel's high-water mark after each reading, so each value is the peak of
// one interval; stop ends the sampler and returns the readings.  Where the
// mark cannot be reset, the readings are the running peak.
func sampleRSS(every time.Duration) (stop func() []float64) {
	resetPeakRSS()
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		var xs []float64
		for {
			select {
			case <-t.C:
				xs = append(xs, peakRSSMB())
				resetPeakRSS()
			case <-done:
				out <- append(xs, peakRSSMB())
				return
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// resetPeakRSS sets the process's VmHWM back to its current RSS.
func resetPeakRSS() { os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a reading of the Go runtime counters the per-layer
// metrics difference over a measured window.
type runtimeSample struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	u := func(i int) uint64 {
		if ss[i].Value.Kind() == metrics.KindUint64 {
			return ss[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if ss[i].Value.Kind() == metrics.KindFloat64 {
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocObjects: u(0), allocBytes: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// fingerprint describes the host and the run, so a number can be traced to
// the machine, toolchain and source it came from.
type fingerprint struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	OfferedRPS float64 `json:"offered_rps,omitempty"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	TempFS     string  `json:"temp_fs"`
	Commit     string  `json:"commit"`
	SourceSHA  string  `json:"source_sha256"`
}

func hostFingerprint(root, tmp string) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		TempFS:     fsType(tmp),
		Commit:     gitCommit(root),
		SourceSHA:  sourceDigest(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType returns the filesystem type of the longest mount point containing
// dir, from /proc/self/mountinfo.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		pre, post, ok := strings.Cut(line, " - ")
		f, g := strings.Fields(pre), strings.Fields(post)
		if !ok || len(f) < 5 || len(g) < 1 {
			continue
		}
		mp := f[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), g[0]
		}
	}
	return typ
}

// gitCommit names the checked-out commit when root is a git work tree and
// "none" otherwise (a source export); sourceDigest identifies the code
// either way.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file under root (skipping dot
// directories such as the build directory), in path order.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
