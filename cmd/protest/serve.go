package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"protest/internal/server"
)

// runServe boots the long-running HTTP analysis service and blocks
// until the listener fails or ctx is cancelled (SIGINT/SIGTERM), then
// drains in-flight requests gracefully for up to -drain before
// forcibly closing the stragglers.
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen `address`")
	inflight := fs.Int("inflight", 0, "max concurrently executing analyses (0 = 2×GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max requests queued beyond -inflight before 429 (0 = 4×inflight)")
	sessions := fs.Int("sessions", 0, "max distinct circuits holding a live session (0 = 64)")
	workers := fs.Int("workers", 0, "worker goroutines per analysis (0 = serial, <0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 1, "session seed for every deterministic pattern stream")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain `timeout`")
	jobWorkers := fs.Int("job-workers", 0, "worker pool executing async /v1/jobs (0 = 2)")
	jobStore := fs.Int("job-store", 0, "max jobs held by the job store before 429 (0 = 256)")
	jobTTL := fs.Duration("job-ttl", 0, "retention of finished jobs and their reports (0 = 15m)")
	worker := fs.Bool("worker", false, "serve POST /v1/shard so a coordinator can dispatch fault-simulation shards here")
	workerAddrs := fs.String("workers-addrs", "", "comma-separated worker addresses to shard fault simulation across")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to read a full request, body included")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time between requests")
	sseKeepAlive := fs.Duration("sse-keepalive", 0, "idle interval between SSE ping comments (0 = 15s, <0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var shardAddrs []string
	if *workerAddrs != "" {
		shardAddrs = splitComma(*workerAddrs)
	}

	srv := server.New(server.Config{
		MaxInFlight:  *inflight,
		MaxQueue:     *queue,
		MaxSessions:  *sessions,
		Workers:      *workers,
		Seed:         *seed,
		JobWorkers:   *jobWorkers,
		JobStoreCap:  *jobStore,
		JobTTL:       *jobTTL,
		Worker:       *worker,
		WorkerAddrs:  shardAddrs,
		SSEKeepAlive: *sseKeepAlive,
	})
	defer srv.Close()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
		// WriteTimeout must stay 0: it is an absolute deadline on the
		// whole response, and the SSE endpoints (/v1/pipeline streaming,
		// /v1/jobs/{id}/events) legitimately write for as long as a
		// computation runs.  Slow-writer protection comes from the SSE
		// keep-alive pings plus IdleTimeout instead.
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "protest: serving on %s\n", *addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Stop accepting and drain in-flight analyses.  Shutdown waits for
	// them; past the drain budget, Close cuts the remaining
	// connections, which cancels their request contexts and aborts the
	// attached analyses through the Session cancellation paths.
	fmt.Fprintf(os.Stderr, "protest: shutting down, draining for up to %s\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain timeout exceeded: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
