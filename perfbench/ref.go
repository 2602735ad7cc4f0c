package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// References are what the correctness gates compare against: the -j 1
// in-process grid render and the in-process reports of the serve-hot
// cells. Each is computed once per build of the benchmark and kept under
// .bench_build/ref/, named by the binary's hash, so every run of one
// build is checked against the same bytes and only the first run pays
// for computing them. A rebuilt binary has another hash and computes
// its own.

var binaryHash = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
})

// cachedRef returns the reference named name, computing and storing it
// on first use by this build.
func cachedRef(name string, compute func() ([]byte, error)) ([]byte, error) {
	bin, err := binaryHash()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(name))
	path := filepath.Join(".bench_build", "ref", bin+"-"+hex.EncodeToString(sum[:8]))
	if b, err := os.ReadFile(path); err == nil {
		return b, nil
	}
	b, err := compute()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	// Write then rename, so a run that stops midway never leaves a
	// truncated reference behind.
	tmp := fmt.Sprintf("%s.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return b, os.Rename(tmp, path)
}

// cachedReports is cachedRef for a list of in-process reports.
func cachedReports(name string, cells []cell, jobs int) ([][]byte, error) {
	var keys []byte
	for _, c := range cells {
		keys = append(keys, c.payload...)
	}
	b, err := cachedRef(name+" "+string(keys), func() ([]byte, error) {
		reps, err := inProcessReports(cells, jobs)
		if err != nil {
			return nil, err
		}
		return json.Marshal(reps)
	})
	if err != nil {
		return nil, err
	}
	var reps [][]byte
	if err := json.Unmarshal(b, &reps); err != nil {
		return nil, fmt.Errorf("reference %s: %w", name, err)
	}
	if len(reps) != len(cells) {
		return nil, fmt.Errorf("reference %s: %d reports for %d cells", name, len(reps), len(cells))
	}
	return reps, nil
}
