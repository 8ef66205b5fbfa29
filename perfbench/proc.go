package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procStatusKB reads one "<key>: <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				return strconv.ParseFloat(fields[0], 64)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, &os.PathError{Op: "find " + key, Path: f.Name(), Err: os.ErrNotExist}
}

// rssSampler records the peak resident set size of a process while it
// runs, polling /proc every 20 ms.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak float64 // kB
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if kb, err := procStatusKB(pid, "VmRSS"); err == nil {
				s.mu.Lock()
				s.peak = max(s.peak, kb)
				s.mu.Unlock()
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak / 1024
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procCPU is another process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, &os.PathError{Op: "parse", Path: "/proc/" + strconv.Itoa(pid) + "/stat", Err: os.ErrInvalid}
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, &os.PathError{Op: "parse", Path: "/proc/" + strconv.Itoa(pid) + "/stat", Err: os.ErrInvalid}
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

var spinSink uint64

// spinRate runs a fixed integer loop on one goroutine for d and returns
// its iterations per second: a probe of how fast the host runs this
// process right now.
func spinRate(d time.Duration) float64 {
	x := uint64(88172645463325252)
	n := 0
	start := time.Now()
	for {
		for i := 0; i < 1<<14; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n++
		if el := time.Since(start); el >= d {
			spinSink = x
			return float64(n) * (1 << 14) / el.Seconds()
		}
	}
}

// hostDrift probes the spin rate again and returns it over the rate
// probed before the run, logging both.
func hostDrift(before float64) float64 {
	after := spinRate(250 * time.Millisecond)
	fmt.Fprintf(os.Stderr, "perfbench: spin rate %.4g/s before, %.4g/s after\n", before, after)
	return after / before
}

// stamp is the provenance printed with every result.
type stamp struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newStamp(root string, seed uint64, wl string, seconds int, trace bool) stamp {
	return stamp{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(root),
		SourceHash: sourceHash(root),
		Seed:       seed,
		Workload:   wl,
		Seconds:    seconds,
		Trace:      trace,
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

// commit is the checkout's git commit read from .git, or "none" when the
// checkout is not a git work tree; the source hash identifies the code
// either way.
func commit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "none"
}

// sourceHash is a SHA-256 over the path and contents of every Go source,
// assembly and module file of the tree, build outputs excluded.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		switch filepath.Ext(p) {
		case ".go", ".s", ".mod":
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
