package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"protest"
	"protest/internal/artifact"
	"protest/internal/server"
)

// fixture is the system under test: one `protest serve`, or a
// coordinator plus one shard worker.  url is where the load goes;
// health lists every process's /healthz and pids every process whose
// CPU time and peak memory the run reports.
type fixture struct {
	url      string
	worker   string // shard worker address, "" when unsharded
	health   []string
	pids     []int
	cmdlines []string
	stop     func() error
}

// startFunc starts a fixture for a workload; it returns once every
// process answers /healthz.
type startFunc func(ctx context.Context, sharded bool) (*fixture, error)

// processFixture starts real `protest serve` processes from the binary
// at bin, listening on loopback.
func processFixture(bin string) startFunc {
	return func(ctx context.Context, sharded bool) (*fixture, error) {
		f := &fixture{}
		var procs []*exec.Cmd
		var logs []*bytes.Buffer
		f.stop = func() error {
			var firstErr error
			for i := len(procs) - 1; i >= 0; i-- {
				if err := stopProcess(procs[i]); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w\n%s", f.cmdlines[i], err, logs[i])
				}
			}
			return firstErr
		}
		start := func(addr string, args ...string) error {
			args = append([]string{"serve", "-addr", addr}, args...)
			cmd := exec.Command(bin, args...)
			// Killed with the benchmark, should it die before stopping it.
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			var log bytes.Buffer
			cmd.Stdout, cmd.Stderr = &log, &log
			if err := cmd.Start(); err != nil {
				return err
			}
			procs = append(procs, cmd)
			logs = append(logs, &log)
			f.cmdlines = append(f.cmdlines, strings.Join(append([]string{"protest"}, args...), " "))
			f.pids = append(f.pids, cmd.Process.Pid)
			f.health = append(f.health, "http://"+addr+"/healthz")
			return nil
		}
		addrs, err := freeAddrs(2) // the server's, and the worker's if sharded
		if err != nil {
			return nil, err
		}
		addr := addrs[0]
		var coordArgs []string
		if sharded {
			f.worker = addrs[1]
			if err := start(f.worker, "-worker"); err != nil {
				return nil, err
			}
			coordArgs = []string{"-workers-addrs", f.worker}
		}
		if err := start(addr, coordArgs...); err != nil {
			f.stop()
			return nil, err
		}
		f.url = "http://" + addr
		for _, h := range f.health {
			if err := waitHealthy(ctx, h); err != nil {
				f.stop()
				return nil, err
			}
		}
		return f, nil
	}
}

// inProcessFixture serves server.New handlers from this process; the
// smoke tests use it, and wrap lets a test tamper with responses.
func inProcessFixture(wrap func(http.Handler) http.Handler) startFunc {
	if wrap == nil {
		wrap = func(h http.Handler) http.Handler { return h }
	}
	return func(ctx context.Context, sharded bool) (*fixture, error) {
		f := &fixture{pids: []int{os.Getpid()}}
		var cfg server.Config
		var stops []func()
		if sharded {
			w := server.New(server.Config{Worker: true})
			ws := httptest.NewServer(w.Handler())
			stops = append(stops, func() { ws.Close(); w.Close() })
			f.worker = strings.TrimPrefix(ws.URL, "http://")
			f.health = append(f.health, ws.URL+"/healthz")
			cfg.WorkerAddrs = []string{f.worker}
			f.cmdlines = append(f.cmdlines, "in-process server.New(Config{Worker: true})")
		}
		s := server.New(cfg)
		hs := httptest.NewServer(wrap(s.Handler()))
		stops = append(stops, func() { hs.Close(); s.Close() })
		f.url = hs.URL
		f.health = append(f.health, hs.URL+"/healthz")
		f.cmdlines = append(f.cmdlines, fmt.Sprintf("in-process server.New(Config{WorkerAddrs: %v})", cfg.WorkerAddrs))
		f.stop = func() error {
			for i := len(stops) - 1; i >= 0; i-- {
				stops[i]()
			}
			return nil
		}
		return f, nil
	}
}

// freeAddrs picks n distinct unused loopback ports.  Each stays bound
// until all are picked: a port released at once can come back from the
// next pick, and then two processes of one fixture race to bind it.
// The ports are released before the servers bind them, which is racy
// only against other processes grabbing ports in that instant.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close() // at return, once every port is picked
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

func waitHealthy(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", url, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stopProcess asks serve to drain and exit, and kills it if it has not
// exited within 20s.
func stopProcess(cmd *exec.Cmd) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-done
	}
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("did not exit within 20s of SIGTERM")
	}
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// Linux fixes it at 100 for user space.
const clockTicks = 100

// cpuMillis sums utime+stime of pids, in milliseconds.
func cpuMillis(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesized command name, which may itself
		// hold spaces: state is the first, utime the 12th, stime the 13th.
		rest := string(b[bytes.LastIndexByte(b, ')')+1:])
		fields := strings.Fields(rest)
		if len(fields) < 13 {
			return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
		}
		for _, s := range fields[11:13] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
			}
			total += v * 1000 / clockTicks
		}
	}
	return total, nil
}

// peakRSSMB sums VmHWM (peak resident set) over pids, in MiB.
func peakRSSMB(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		found := false
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err != nil {
					f.Close()
					return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
				}
				total += kb / 1024
				found = true
				break
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
		}
	}
	return total, nil
}

// health mirrors the parts of GET /healthz the benchmark reads.
type health struct {
	Stats server.Stats        `json:"stats"`
	Store artifact.Stats      `json:"store"`
	Shard *protest.ShardStats `json:"shard"`
}

// counters is a sum of /healthz counters over a fixture's processes.
type counters struct {
	batchFlushes, batchRequests, analyzePasses int64
	joins                                      int64
	builds, hits                               int64
	shards, retries, fallbacks                 int64
}

func (a counters) sub(b counters) counters {
	return counters{
		batchFlushes:  a.batchFlushes - b.batchFlushes,
		batchRequests: a.batchRequests - b.batchRequests,
		analyzePasses: a.analyzePasses - b.analyzePasses,
		joins:         a.joins - b.joins,
		builds:        a.builds - b.builds,
		hits:          a.hits - b.hits,
		shards:        a.shards - b.shards,
		retries:       a.retries - b.retries,
		fallbacks:     a.fallbacks - b.fallbacks,
	}
}

func readCounters(ctx context.Context, f *fixture) (counters, error) {
	var sum counters
	for _, url := range f.health {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return sum, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return sum, err
		}
		var h health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("%s: %w", url, err)
		}
		sum.batchFlushes += h.Stats.Batch.Flushes
		sum.batchRequests += h.Stats.Batch.Requests
		sum.analyzePasses += h.Stats.AnalyzePasses
		sum.joins += h.Stats.Coalesce.Joins
		sum.builds += h.Store.Builds
		sum.hits += h.Store.Hits
		if h.Shard != nil {
			sum.shards += h.Shard.Shards
			sum.retries += h.Shard.Retries
			sum.fallbacks += h.Shard.LocalFallbacks
		}
	}
	return sum, nil
}
