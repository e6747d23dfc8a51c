package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/buildinfo"
)

// printHost prints the host block every result carries: CPU, core count,
// GOMAXPROCS, Go version and the program's identity.
func printHost(workload string, seed uint64) {
	bi := buildinfo.Read()
	fmt.Printf("# perfbench workload=%s seed=%d\n", workload, seed)
	fmt.Printf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# program commit=%s source=%s\n", bi.Commit, sourceDigest("."))
	fmt.Println("# model: simulated results are not validated against hardware measurements, so no accuracy error figure is given; simulated counts are exact, times are host time")
}

// cpuModel returns the CPU model name, or "unknown" where the kernel does
// not expose one.
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

// sourceDigest identifies the program under test when no VCS stamp is
// available: the sha256 of every Go source file and go.mod under root,
// excluding the benchmark itself and hidden or build directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))[:19]
}
