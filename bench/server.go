package main

import (
	"io"
	"log"

	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/dist"
	"odr/internal/ingest"
	"odr/internal/odrweb"
	"odr/internal/workload"
)

// newInProcessServer assembles the decide service the way cmd/odrserver
// does (same universe, same warm draws, same ingest knobs), for the
// places that need a server without a process: the socket-free handler
// loops of the traced run and the smoke test. The measured serve-decide
// workload always talks to the built odrserver instead.
func newInProcessServer(files int, seed uint64, p int) (*odrweb.Server, error) {
	tr, err := workload.Generate(workload.DefaultConfig(files, seed))
	if err != nil {
		return nil, err
	}
	db := cloud.NewContentDB()
	db.SeedPopularity(tr.Files)
	pol, err := cloud.NewPolicy("")
	if err != nil {
		return nil, err
	}
	pool := cloud.NewStoragePoolPolicy(cloud.FullPoolBytes, len(tr.Files), pol)
	warm := dist.NewRNG(seed).Split("server-warm")
	warmProbs := [3]float64{0.70, 0.97, 0.998}
	for _, f := range tr.Files {
		if warm.Bool(warmProbs[f.Band()]) {
			pool.AddMeta(f)
		}
	}
	srv := odrweb.NewServer(&core.Advisor{DB: db, Cache: pool},
		odrweb.FallbackResolver{Primary: odrweb.NewMapResolver(tr.Files)},
		log.New(io.Discard, "", 0))
	srv.SetPoolStats(pool.Stats)
	srv.StartIngest(ingest.Config{Workers: p, QueueDepth: serveIngestQueue})
	return srv, nil
}
