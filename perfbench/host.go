package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// fingerprint identifies the host a result was measured on, plus the code
// it measured. Results are comparable only when the host fields agree; the
// commit is expected to differ in an A/B and is reported, not matched.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the VCS revision the binary was built from, or, when the
	// checkout carries no VCS metadata, "src:" plus a digest of its Go
	// sources.
	Commit string `json:"commit"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s",
		f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.GOOS, f.GOARCH, f.Commit)
}

// sameHost reports whether two results were measured under the same host
// conditions, naming the first field that differs.
func (f fingerprint) sameHost(g fingerprint) (bool, string) {
	switch {
	case f.CPU != g.CPU:
		return false, fmt.Sprintf("cpu %q vs %q", f.CPU, g.CPU)
	case f.NumCPU != g.NumCPU:
		return false, fmt.Sprintf("nproc %d vs %d", f.NumCPU, g.NumCPU)
	case f.GOMAXPROCS != g.GOMAXPROCS:
		return false, fmt.Sprintf("GOMAXPROCS %d vs %d", f.GOMAXPROCS, g.GOMAXPROCS)
	case f.GoVersion != g.GoVersion:
		return false, fmt.Sprintf("go %s vs %s", f.GoVersion, g.GoVersion)
	case f.GOOS != g.GOOS || f.GOARCH != g.GOARCH:
		return false, fmt.Sprintf("platform %s/%s vs %s/%s", f.GOOS, f.GOARCH, g.GOOS, g.GOARCH)
	}
	return true, ""
}

func hostFingerprint(root string) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(root),
	}
}

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

func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "src:" + sourceDigest(root)
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories (VCS metadata, the build directory), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// resetPeakRSS restarts the kernel's peak-RSS tracking at the current
// resident set (Linux clear_refs), so each repetition's peak is its own.
// Where that is unavailable the peak stays process-wide, which only makes
// later repetitions read the same maximum.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB, or, where
// /proc is unavailable, the Go runtime's total obtained memory.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// compareMain prints old and new values of every metric two result files
// share, refusing when their host fingerprints differ:
//
//	perfbench compare old.json new.json
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 1
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", path, err)
			return 1
		}
	}
	a, b := files[0], files[1]
	if ok, why := a.Fingerprint.sameHost(b.Fingerprint); !ok {
		fmt.Fprintf(stderr, "perfbench compare: refusing: results come from different hosts (%s)\n", why)
		return 1
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds || a.Scale != b.Scale {
		fmt.Fprintf(stderr, "perfbench compare: refusing: different runs (%s trace=%v %gs scale %d vs %s trace=%v %gs scale %d)\n",
			a.Workload, a.Trace, a.Seconds, a.Scale, b.Workload, b.Trace, b.Seconds, b.Scale)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s, host %s\ncommits %s -> %s\n", a.Workload, a.Fingerprint.CPU, a.Fingerprint.Commit, b.Fingerprint.Commit)
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		if _, ok := b.Result.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a.Result.Metrics[n], b.Result.Metrics[n]
		change := "n/a"
		if x.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", (y.Value-x.Value)/x.Value*100)
		}
		fmt.Fprintf(stdout, "%-36s %14.6g -> %-14.6g %-9s %s\n", n, x.Value, y.Value, x.Unit, change)
	}
	return 0
}
