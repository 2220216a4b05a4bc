package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// digestOps is how many leading ops the printed outcome digest covers.
// Every phase completes at least this many ops, so runs of one seed
// always digest the same work.
const digestOps = 20

// digest hashes the outcome lines of the first digestOps ops.
func digest(outcomes []string) (string, error) {
	if len(outcomes) < digestOps {
		return "", fmt.Errorf("digest needs %d ops, the phase completed %d", digestOps, len(outcomes))
	}
	h := sha256.New()
	for _, o := range outcomes[:digestOps] {
		io.WriteString(h, o)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// compareOutcomes checks that two phases that ran the same op sequence
// agree on every op both completed, and names the first op that differs.
func compareOutcomes(a, b []string) error {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Errorf("op %d differs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	return nil
}

// checkRecorded compares a digest with the one an earlier run of the same
// binary, workload and seed stored at path, and stores it when there is
// none yet.
func checkRecorded(path, dig string) error {
	old, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(old) != dig {
			return fmt.Errorf("digest %s differs from %s of an earlier run with the same seed", dig, old)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(dig), 0o644)
	default:
		return err
	}
}

// binaryHash identifies the running benchmark build, so stored digests are
// only compared between runs of the same code.
func binaryHash() (string, error) {
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
}
