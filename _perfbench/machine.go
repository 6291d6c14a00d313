package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// stamp describes the machine a run measured on, so that a loaded or
// different machine shows in the artifact instead of posing as a
// regression.
type stamp struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	CPUModel   string    `json:"cpu_model"`
	DataDirFS  string    `json:"data_dir_fs"`
	LoadBefore []float64 `json:"loadavg_before"`
	LoadAfter  []float64 `json:"loadavg_after"`
	// StealPct is the share of CPU time the hypervisor took from this
	// machine during the run: a busy host shows here.
	StealPct float64 `json:"steal_pct"`
	cpu0     []uint64
}

func newStamp(dataDir string) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		DataDirFS:  fsType(dataDir),
		LoadBefore: loadAvg(),
		cpu0:       cpuTimes(),
	}
}

// finish records the state of the machine after the run.
func (s *stamp) finish() {
	s.LoadAfter = loadAvg()
	cpu1 := cpuTimes()
	if len(s.cpu0) < 8 || len(cpu1) < 8 {
		return
	}
	var total uint64
	for i := range cpu1 {
		total += cpu1[i] - s.cpu0[i]
	}
	if total > 0 {
		s.StealPct = 100 * float64(cpu1[7]-s.cpu0[7]) / float64(total)
	}
}

// cpuTimes reads the aggregate CPU time counters of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, ...).
func cpuTimes() []uint64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var out []uint64
	for _, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
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

// loadAvg reads the 1, 5 and 15 minute load averages.
func loadAvg() []float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return nil
	}
	fields := strings.Fields(string(raw))
	var out []float64
	for i := 0; i < 3 && i < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

var fsMagic = map[uint64]string{
	0xEF53:     "ext2/3/4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[uint64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// resetPeakRSS starts a new peak-RSS window (Linux clear_refs "5"). It
// reports whether the kernel accepted the reset; when it did not, the
// peak covers the whole process life.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, werr := f.WriteString("5")
	cerr := f.Close()
	return werr == nil && cerr == nil
}

// peakRSSMB reads the resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
