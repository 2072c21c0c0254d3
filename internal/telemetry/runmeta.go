package telemetry

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// RunMeta is the machine/build stamp every BENCH_*.json carries so
// trajectories stay attributable across machines and commits: the same
// benchmark number means nothing without knowing which CPU, core count, and
// source revision produced it.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// CPUModel is the model string from /proc/cpuinfo ("unknown" where the
	// platform does not expose one).
	CPUModel string `json:"cpu_model"`
	// GitCommit is the VCS revision baked into the binary by the Go
	// toolchain or, when the build carries none (go run, -buildvcs=off),
	// the commit checked out in the enclosing .git; "unknown" outside a
	// checkout. Dirty marks uncommitted changes at build time and is only
	// known from the build stamp.
	GitCommit string `json:"git_commit"`
	Dirty     bool   `json:"git_dirty,omitempty"`
	// Topology describes the machine shape scaling numbers depend on.
	Topology Topology `json:"topology"`
	// Timestamp is the collection time, UTC RFC3339.
	Timestamp string `json:"timestamp"`
}

// Topology is the machine shape a scaling benchmark ran on: worker-placement
// and barrier numbers are meaningless without knowing how many cores and
// sockets shared them, and false-sharing padding is relative to the cache
// line size.
type Topology struct {
	// Cores is the schedulable CPU count (runtime.NumCPU).
	Cores int `json:"cores"`
	// Sockets is the number of physical packages (distinct "physical id"
	// values in /proc/cpuinfo); 1 where the platform does not say.
	Sockets int `json:"sockets"`
	// CacheLineBytes is the coherency line size from sysfs; 64 where the
	// platform does not expose it.
	CacheLineBytes int `json:"cache_line_bytes"`
}

// CollectRunMeta gathers the stamp for the current process.
func CollectRunMeta() RunMeta {
	m := RunMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GitCommit:  "unknown",
		Topology:   collectTopology(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitCommit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	if m.GitCommit == "unknown" {
		if wd, err := os.Getwd(); err == nil {
			if c := gitHead(wd); c != "" {
				m.GitCommit = c
			}
		}
	}
	return m
}

// gitHead returns the commit checked out in the git repository enclosing
// dir, read from the repository files without running git: HEAD holds either
// a commit (detached) or "ref: <name>", whose commit is in the loose ref file
// or, once git has packed it, in packed-refs. It returns "" when dir is not
// inside a repository or the commit cannot be resolved (a worktree or
// submodule, whose .git is a file, included).
func gitHead(dir string) string {
	var gitDir string
	for d := filepath.Clean(dir); ; {
		gitDir = filepath.Join(d, ".git")
		if _, err := os.Stat(gitDir); err == nil {
			break
		}
		parent := filepath.Dir(d)
		if parent == d {
			return ""
		}
		d = parent
	}
	data, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(data))
	ref, symbolic := strings.CutPrefix(head, "ref:")
	if !symbolic {
		return commitHash(head)
	}
	ref = strings.TrimSpace(ref)
	if data, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return commitHash(strings.TrimSpace(string(data)))
	}
	data, err = os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if hash, name, ok := strings.Cut(strings.TrimSpace(line), " "); ok && name == ref {
			return commitHash(hash)
		}
	}
	return ""
}

// commitHash returns s when it is a hex object name (SHA-1 or SHA-256),
// else "".
func commitHash(s string) string {
	if len(s) != 40 && len(s) != 64 {
		return ""
	}
	for _, c := range s {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return ""
		}
	}
	return s
}

// collectTopology gathers the machine shape from Linux's /proc and /sys;
// other platforms get the conservative defaults (1 socket, 64-byte lines).
func collectTopology() Topology {
	t := Topology{Cores: runtime.NumCPU(), Sockets: 1, CacheLineBytes: 64}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		ids := make(map[string]struct{})
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "physical id" {
				ids[strings.TrimSpace(v)] = struct{}{}
			}
		}
		if len(ids) > 0 {
			t.Sockets = len(ids)
		}
	}
	if data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size"); err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil && n > 0 {
			t.CacheLineBytes = n
		}
	}
	return t
}

// cpuModel reads the first "model name" line of /proc/cpuinfo (Linux); other
// platforms report "unknown" rather than shelling out.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			key := strings.TrimSpace(k)
			if key == "model name" || key == "Model" || key == "cpu model" {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
