package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// provenanceRecord is the host and input record printed with every result.
type provenanceRecord struct {
	NProc      int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go"`
	Commit     string        `json:"commit"`
	CPU        string        `json:"cpu"`
	Workload   string        `json:"workload"`
	Seed       uint64        `json:"seed"`
	Seconds    float64       `json:"seconds"`
	Network    string        `json:"network"`
	Phases     []phaseRecord `json:"phases"`
}

type phaseRecord struct {
	Name      string `json:"name"`
	Sent      int64  `json:"sent"`
	Succeeded int64  `json:"succeeded"`
	Failed    int64  `json:"failed"`
}

func provenance(b *bench) provenanceRecord {
	p := provenanceRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		CPU:        cpuModel(),
		Workload:   b.w.name,
		Seed:       b.seed,
		Seconds:    b.seconds.Seconds(),
		Network:    "loopback TCP; client and server share one process",
	}
	for _, ph := range b.phases {
		p.Phases = append(p.Phases, phaseRecord{ph.name, ph.tally.sent,
			ph.tally.kinds[kindOK] - ph.tally.kinds[kindWrong], ph.tally.failed()})
	}
	return p
}

// commit names the measured source: the git HEAD when the working
// directory is a git checkout, else a digest of its Go sources and module
// files (directories starting with "." are skipped).
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return "git:" + strings.TrimSpace(string(sha))
			}
		} else {
			return "git:" + ref
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
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
