package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// Filesystem magic numbers from statfs(2).
const (
	tmpfsMagic = 0x01021994
	ext4Magic  = 0xef53
	xfsMagic   = 0x58465342
	btrfsMagic = 0x9123683e
	ovlMagic   = 0x794c7630
)

// envStamp is printed with every result so figures from different
// machines are never compared blind.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	JournalFS  string `json:"journal_fs"`
	Traced     bool   `json:"traced"`
	Clients    int    `json:"clients"`
}

func (e envStamp) String() string {
	b, _ := json.Marshal(e) // plain struct of strings and ints: cannot fail
	return string(b)
}

// stampEnv describes the machine and refuses a journal directory on
// tmpfs, where fsync costs nothing and the journaled workload would
// measure memory copies instead of durability.
func stampEnv(o opts) (envStamp, error) {
	fs, err := fsType(o.dir)
	if err != nil {
		return envStamp{}, err
	}
	if fs == "tmpfs" {
		return envStamp{}, fmt.Errorf("scratch directory %s is on tmpfs; the journal needs a real disk", o.dir)
	}
	return envStamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		JournalFS: fs, Traced: o.traced, Clients: o.clients,
	}, nil
}

func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	switch uint64(st.Type) {
	case tmpfsMagic:
		return "tmpfs", nil
	case ext4Magic:
		return "ext4", nil
	case xfsMagic:
		return "xfs", nil
	case btrfsMagic:
		return "btrfs", nil
	case ovlMagic:
		return "overlayfs", nil
	}
	return fmt.Sprintf("0x%x", uint64(st.Type)), nil
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
