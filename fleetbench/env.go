package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// printEnv records what a reader needs to compare two reports: the
// machine, the toolchain, the data dir's filesystem with one measured
// fsync, the commit, and the seeds.
func printEnv(w io.Writer, cfg config, defaultSeed, heldoutSeed uint64) {
	fmt.Fprintf(w, "fleetbench workload=%s seed=%d default_seed=%d heldout_seed=%d seconds=%g trace=%v",
		cfg.workload, cfg.seed, defaultSeed, heldoutSeed, cfg.seconds, cfg.trace)
	if cfg.workload == "churn" {
		fmt.Fprintf(w, " churn_rate=%d/s", churnRate)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fsync, err := measureFsync(cfg.dataRoot)
	if err != nil {
		fmt.Fprintf(w, "env data_dir=%s fs=%s fsync=error(%v)\n", cfg.dataRoot, fsType(cfg.dataRoot), err)
		return
	}
	fmt.Fprintf(w, "env data_dir=%s fs=%s fsync_4k_us=%.1f\n", cfg.dataRoot, fsType(cfg.dataRoot), float64(fsync)/1e3)
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

// commit is the VCS revision the toolchain stamped into the binary, when
// it was built inside a git work tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// fsType names the data dir's filesystem from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x9123683E: "btrfs",
		0x65735546: "fuse",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// measureFsync writes 4 KiB to a fresh file in dir and times one fsync.
func measureFsync(dir string) (time.Duration, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
