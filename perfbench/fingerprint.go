package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the machine and the code a result was taken on.
// Results whose machine fields differ are not comparable; commit and tree
// name the code under test.
type fingerprint struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
}

// takeFingerprint describes this process. root is the checkout whose
// sources the tree digest covers.
func takeFingerprint(root string) fingerprint {
	return fingerprint{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     vcsCommit(),
		Tree:       treeDigest(root),
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s tree=%s",
		f.Nproc, f.GOMAXPROCS, f.CPU, f.Go, f.Commit, f.Tree)
}

// machineDiffs lists the machine fields on which f and g differ.
func (f fingerprint) machineDiffs(g fingerprint) []string {
	var d []string
	if f.Nproc != g.Nproc {
		d = append(d, fmt.Sprintf("nproc %d vs %d", f.Nproc, g.Nproc))
	}
	if f.GOMAXPROCS != g.GOMAXPROCS {
		d = append(d, fmt.Sprintf("gomaxprocs %d vs %d", f.GOMAXPROCS, g.GOMAXPROCS))
	}
	if f.CPU != g.CPU {
		d = append(d, fmt.Sprintf("cpu %q vs %q", f.CPU, g.CPU))
	}
	if f.Go != g.Go {
		d = append(d, fmt.Sprintf("go %s vs %s", f.Go, g.Go))
	}
	return d
}

// vcsCommit returns the git revision stamped into the binary, or "none"
// when it was built outside a git checkout.
func vcsCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", ""
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

// treeDigest hashes the Go sources under root (skipping dot directories
// such as the build output), so results name their code even where no git
// metadata exists.
func treeDigest(root string) string {
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
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".s") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
