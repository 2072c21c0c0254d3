package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// runMeta stamps a result with what it was measured on.
type runMeta struct {
	Commit     string  `json:"git_commit"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Probe1MS   float64 `json:"probe_1goroutine_ms"`
	Probe2MS   float64 `json:"probe_2goroutine_ms"`
	ProbeRatio float64 `json:"probe_scaling"`
}

func collectMeta() runMeta {
	m := runMeta{
		Commit:     gitCommit("."),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
	m.Probe1MS, m.Probe2MS = scalingProbe()
	m.ProbeRatio = m.Probe1MS / m.Probe2MS
	return m
}

// gitCommit resolves HEAD by reading the repository's files directly, so a
// binary built without VCS stamping still reports its commit. Outside a git
// checkout it says so instead of guessing.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h // detached HEAD holds the hash itself
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown (unresolved " + ref + ")"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown (unresolved " + ref + ")"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// scalingProbe times a fixed amount of independent arithmetic done by one
// goroutine and then split across two. On a machine that really runs two
// goroutines at once the second time is about half the first; when it is
// not, wall-clock scaling of the executor is not measurable there either.
func scalingProbe() (oneMS, twoMS float64) {
	const work = 30_000_000
	run := func(parts int) float64 {
		t0 := time.Now()
		var wg sync.WaitGroup
		sink := make([]float64, parts)
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				x := float64(p + 1)
				for i := 0; i < work/parts; i++ {
					x = x*0.999999 + 1e-6
				}
				sink[p] = x
			}(p)
		}
		wg.Wait()
		return float64(time.Since(t0).Microseconds()) / 1e3
	}
	ones, twos := sample{}, sample{}
	for i := 0; i < 3; i++ {
		ones = append(ones, run(1))
		twos = append(twos, run(2))
	}
	return median(ones), median(twos)
}
