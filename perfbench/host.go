package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostBlock describes where and on what a result was measured: Go version,
// GOOS/GOARCH, GOMAXPROCS, nproc, CPU model, commit and seed. The commit
// is the PERFBENCH_COMMIT environment variable when set; the source digest
// (SHA-256 over the module's .go files and go.mod) identifies the code
// either way, including in a checkout that is not a git repository.
func hostBlock(seed uint64) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("host go=%s os=%s/%s gomaxprocs=%d nproc=%d cpu=%q commit=%s source=%s seed=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		cpuModel(), commit, sourceDigest("."), seed)
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

// sourceDigest hashes every .go file and go.mod under root, in path order,
// skipping dot-directories (build outputs live there).
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
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
