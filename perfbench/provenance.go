package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance records where and from what a result was measured: the
// machine, the toolchain, the source tree (commit when the checkout is a
// git repository, and always a digest of the module's Go sources), the
// workload seed, and for the gateway the revision its binary was built
// from.
func provenance(cfg config) (map[string]any, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	p := map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(),
		"source_sha256": digest,
	}
	if cfg.workload == "gateway-churn" {
		p["gateway_binary_sha256"] = fileDigest(cfg.serveBin)
		p["gateway_built_from"] = binaryRevision(cfg.serveBin, digest)
	}
	return p, nil
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

func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown" // not a git checkout; source_sha256 identifies the code
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and content of every Go source and go.mod
// file of the module rooted at root, skipping build output and VCS data.
// It identifies the code under test when the checkout carries no commit.
func sourceDigest(root string) (string, error) {
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
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func fileDigest(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// binaryRevision names what the gateway binary was built from: the VCS
// revision embedded by the go command when one is available, else the
// source digest of the tree run.sh built it from moments before.
func binaryRevision(path, digest string) string {
	info, err := buildinfo.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return "source_sha256:" + digest
}
