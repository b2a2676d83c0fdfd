package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procTick is the unit of the utime/stime fields of /proc/<pid>/stat:
// USER_HZ, which the Linux ABI fixes at 100 whatever the kernel's HZ.
const procTick = 10 * time.Millisecond

// parseStatCPU reads utime+stime out of a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat line has no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return time.Duration(ut+st) * procTick, nil
}

// procCPU is another process's user+system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseVmHWM reads the peak resident set size, in MB, out of the text of
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMB is the peak resident set of pid (0 = this process) in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// repoRoot walks up from the working directory to the checkout root:
// the directory whose go.mod declares module athena. `go run -C bench`
// and `go test` both start in bench/, one level below it.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module athena\n")) {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("no go.mod declaring module athena above the working directory")
		}
		dir = up
	}
}

// conditions is the platform block every result carries: a timing means
// nothing without the machine and the moment it was taken on.
type conditions struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
	Load1      float64
	Seed       int64
	Workload   string
	Params     string
}

func readConditions(root string) conditions {
	c := conditions{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Load1:      -1,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				c.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				c.Load1 = v
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is then
	// reported as unknown rather than guessed.
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		c.Commit = strings.TrimSpace(string(out))
	}
	return c
}

func (c conditions) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s load1=%.2f seed=%d workload=%s params=[%s]",
		c.CPU, c.NProc, c.GOMAXPROCS, c.GoVersion, c.Commit, c.Load1, c.Seed, c.Workload, c.Params)
}

// busy reports whether the box is loaded enough to blur timings: more
// than half the cores were already running something in the last minute.
func (c conditions) busy() bool {
	return c.Load1 > float64(c.NProc)/2
}
