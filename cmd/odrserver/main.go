// Command odrserver runs the ODR web service (§6.1): a lightweight
// middleware that answers "where should this download run" without ever
// moving file bytes itself.
//
// Usage:
//
//	odrserver [-addr :8080] [-addr-file PATH] [-files N] [-seed S]
//	          [-cache-policy NAME] [-metrics FORMAT] [-faults SPEC]
//	          [-pprof ADDR] [-shutdown-timeout D] [-ingest-workers N]
//	          [-ingest-queue N] [-ingest-batch N] [-admit-rate R]
//
// With -addr-file the bound listen address is written to PATH once the
// listener is up — pass -addr 127.0.0.1:0 and scripts can discover the
// kernel-chosen port by polling the file.
//
// With -cache-policy the pre-warmed pool runs under the named eviction
// policy (lru, lfu, band, prewarm); the pool's state and counters appear
// as odr_pool_* series on /metrics either way.
// The server builds a synthetic content universe of N files (the stand-in
// for Xuanfeng's content database) with a pre-warmed cache, then serves:
//
//	POST /api/v1/decide       — redirection decisions
//	POST /api/v1/decide/batch — batched decisions through the ingest
//	                            pipeline (admission control, bounded
//	                            queues, amortized processing)
//	GET  /healthz             — liveness
//	GET  /metrics             — Prometheus exposition (?format=json)
//	GET  /                    — front page
//
// The ingest knobs (-ingest-workers, -ingest-queue, -ingest-batch,
// -admit-rate) size the batch pipeline; its odr_ingest_* series appear
// on /metrics. Zero values take the package defaults; -admit-rate 0
// disables per-user admission control.
//
// With -faults the server follows a deterministic fault schedule (see
// internal/faults): wall time, wrapped modulo the schedule span, decides
// which backends are offline or degraded, decide responses report the
// chosen backend's health and whether the router fell back, and
// /metrics exposes odr_decisions_rerouted_total per degrade reason.
//
// SIGINT/SIGTERM drain in-flight requests through http.Server.Shutdown
// (bounded by -shutdown-timeout) before the process exits. With
// -metrics prom|json the final metrics snapshot is written to stdout
// after the listener drains; with -pprof a net/http/pprof server runs on
// a second address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/dist"
	"odr/internal/faults"
	"odr/internal/odrweb"
	"odr/internal/scenario"
	"odr/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file (useful with -addr :0)")
	files := flag.Int("files", 20000, "files in the synthetic content database")
	seed := flag.Uint64("seed", 1, "random seed")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for draining in-flight requests on SIGINT/SIGTERM")
	common := scenario.RegisterCommon(flag.CommandLine)
	common.RegisterIngest(flag.CommandLine)
	flag.Parse()

	logger := log.New(os.Stderr, "odrserver ", log.LstdFlags)
	if err := run(*addr, *addrFile, *files, *seed, *shutdownTimeout, common, logger); err != nil {
		logger.Fatal(err)
	}
}

func run(addr, addrFile string, files int, seed uint64, shutdownTimeout time.Duration,
	common *scenario.Common, logger *log.Logger) error {
	if err := common.Validate(); err != nil {
		return err
	}
	srv, n, err := buildServer(files, seed, common.CachePolicy, common.PoolBytes, logger)
	if err != nil {
		return err
	}
	if err := installFaults(srv, common.Faults, seed, logger); err != nil {
		return err
	}
	srv.StartIngest(common.IngestConfig())
	logger.Printf("content database ready: %d files (%d cached)", files, n)

	if common.Pprof != "" {
		go scenario.ServePprof(common.Pprof, logger.Printf)
	}

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Bind explicitly (rather than ListenAndServe) so -addr :0 has a
	// concrete port to report through -addr-file.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}

	// Drain gracefully on SIGINT/SIGTERM: stop accepting, let in-flight
	// requests finish (bounded), then drain the ingest pipeline and exit.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", bound)
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		logger.Printf("signal received; draining (timeout %s)", shutdownTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		// Batch handlers wait on their items, so the listener drains
		// first; what is left in the queues finishes here.
		if err := srv.CloseIngest(sctx); err != nil {
			logger.Printf("ingest drain: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}

	if err := scenario.DumpSnapshot(os.Stdout, srv.Snapshot(), common.Metrics); err != nil {
		return err
	}
	logger.Printf("bye")
	return nil
}

// installFaults parses -faults and, when the spec injects anything, hooks
// a schedule clock into the server: wall time since startup, wrapped
// modulo the schedule span, maps each route's backend onto its
// deterministic offline/degraded windows.
func installFaults(srv *odrweb.Server, spec string, seed uint64, logger *log.Logger) error {
	fs, err := faults.ParseSpec(spec)
	if err != nil {
		return err
	}
	if !fs.Enabled() {
		return nil
	}
	clock := faults.NewClock(fs, seed)
	span := clock.Span()
	start := time.Now()
	srv.SetHealth(func(r core.Route) backend.Health {
		at := time.Since(start) % span
		return clock.Health(backend.NameForRoute(r), at)
	})
	logger.Printf("fault schedule active: %s (span %s)", fs.String(), span)
	return nil
}

// buildServer synthesizes the content universe and assembles the service,
// returning the number of pre-cached files. poolBytes overrides the
// pool's full-scale capacity when positive.
func buildServer(files int, seed uint64, cachePolicy string, poolBytes int64,
	logger *log.Logger) (*odrweb.Server, int, error) {
	pol, err := cloud.NewPolicy(cachePolicy)
	if err != nil {
		return nil, 0, err
	}
	tr, err := workload.Generate(workload.DefaultConfig(files, seed))
	if err != nil {
		return nil, 0, fmt.Errorf("generate content universe: %w", err)
	}
	db := cloud.NewContentDB()
	db.SeedPopularity(tr.Files)

	capacity := int64(cloud.FullPoolBytes)
	if poolBytes > 0 {
		capacity = poolBytes
	}
	pool := cloud.NewStoragePoolPolicy(capacity, len(tr.Files), pol)
	warm := dist.NewRNG(seed).Split("server-warm")
	cached := 0
	for _, f := range tr.Files {
		if warm.Bool(backend.WarmProbs[f.Band()]) {
			pool.AddMeta(f)
			cached++
		}
	}
	advisor := &core.Advisor{DB: db, Cache: pool}
	resolver := odrweb.FallbackResolver{Primary: odrweb.NewMapResolver(tr.Files)}
	srv := odrweb.NewServer(advisor, resolver, logger)
	srv.SetPoolStats(pool.Stats)
	return srv, cached, nil
}
