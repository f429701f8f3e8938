package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// header records the environment a result file's runs were measured
// in, so two files can be compared knowingly.
type header struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Seed       uint64 `json:"seed"`
}

// runRecord is one workload run in a result file.
type runRecord struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Started   time.Time         `json:"started"`
	Seconds   float64           `json:"seconds"`
	Fixture   []string          `json:"fixture"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Drained   [clients]float64  `json:"drained_s"`
	Metrics   map[string]metric `json:"metrics"`
	// Percentiles are the printed latency percentiles (see report).
	Percentiles map[string]metric `json:"percentiles"`
}

// resultFile is <UTC-date>-<short-commit>-s<seed>.json in the results
// directory (bench/out/results, which git ignores): the environment
// header and every run made that day at that commit with that seed.
type resultFile struct {
	Header header      `json:"header"`
	Runs   []runRecord `json:"runs"`
}

// environment collects the header for this process.  The commit comes
// from git when the working directory is a git checkout's root and
// reads "unknown" otherwise.
func environment(seed uint64) header {
	h := header{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		Commit:     "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			h.Dirty = len(bytes.TrimSpace(out)) > 0
		}
	}
	return h
}

// appendResult adds a run to its day's result file in dir and returns
// the file's path.
func appendResult(dir string, h header, rec runRecord) (string, error) {
	name := fmt.Sprintf("%s-%s-s%d.json", rec.Started.UTC().Format("2006-01-02"), h.Commit, h.Seed)
	path := filepath.Join(dir, name)
	var rf resultFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &rf); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
	case errors.Is(err, fs.ErrNotExist):
		rf.Header = h
	default:
		return "", err
	}
	rf.Runs = append(rf.Runs, rec)
	if data, err = json.MarshalIndent(rf, "", "  "); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}
