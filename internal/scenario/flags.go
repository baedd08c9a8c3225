package scenario

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"odr/internal/cloud"
	"odr/internal/faults"
	"odr/internal/ingest"
	"odr/internal/obs"
)

// Common is the flag surface the replay-family commands share: fault
// injection, cache policy, pool capacity, metrics dump, and pprof
// (RegisterCommon), plus the ingest pipeline block (RegisterIngest),
// which only the command that serves the batched decide path registers —
// so a flag a command accepts always reaches code.
type Common struct {
	Faults      string
	CachePolicy string
	PoolBytes   int64
	Metrics     string
	Pprof       string

	// Ingest knobs, the RegisterIngest block (the batched decide
	// pipeline; zero = package default).
	IngestWorkers int
	IngestQueue   int
	IngestBatch   int
	AdmitRate     float64
}

// RegisterCommon registers the flags every replay-family command takes
// on fs and returns the destination struct (valid after fs.Parse).
func RegisterCommon(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.StringVar(&c.Faults, "faults", "",
		"inject deterministic faults: an intensity (\"0.25\") or per-class rates (\"transient=0.1,churn=0.05\"; see internal/faults)")
	fs.StringVar(&c.CachePolicy, "cache-policy", "",
		"cloud storage-pool eviction policy: lru, lfu, band, prewarm (empty = default)")
	fs.Int64Var(&c.PoolBytes, "pool-bytes", 0,
		"override the cloud pool capacity in bytes (0 = scale default)")
	fs.StringVar(&c.Metrics, "metrics", "",
		"dump the final metrics snapshot: prom or json")
	fs.StringVar(&c.Pprof, "pprof", "",
		"also serve net/http/pprof on this address")
	return c
}

// RegisterIngest adds the ingest-pipeline flags, for commands that serve
// the batched decide path.
func (c *Common) RegisterIngest(fs *flag.FlagSet) {
	fs.IntVar(&c.IngestWorkers, "ingest-workers", 0,
		"batch-decide worker goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&c.IngestQueue, "ingest-queue", 0,
		"per-worker ingest queue depth (0 = default)")
	fs.IntVar(&c.IngestBatch, "ingest-batch", 0,
		"max items a worker drains per processing batch (0 = default)")
	fs.Float64Var(&c.AdmitRate, "admit-rate", 0,
		"per-user admission budget in requests/second (0 = unlimited)")
}

// Validate rejects malformed shared flags up front, before any workload
// is generated or listener bound.
func (c *Common) Validate() error {
	switch c.Metrics {
	case "", "prom", "json":
	default:
		return fmt.Errorf("unknown -metrics format %q (want prom or json)", c.Metrics)
	}
	if _, err := cloud.NewPolicy(c.CachePolicy); err != nil {
		return err
	}
	if _, err := faults.ParseSpec(c.Faults); err != nil {
		return err
	}
	if c.PoolBytes < 0 {
		return fmt.Errorf("negative -pool-bytes %d", c.PoolBytes)
	}
	if c.IngestWorkers < 0 {
		return fmt.Errorf("negative -ingest-workers %d", c.IngestWorkers)
	}
	if c.IngestQueue < 0 {
		return fmt.Errorf("negative -ingest-queue %d", c.IngestQueue)
	}
	if c.IngestBatch < 0 {
		return fmt.Errorf("negative -ingest-batch %d", c.IngestBatch)
	}
	if c.AdmitRate < 0 {
		return fmt.Errorf("negative -admit-rate %g", c.AdmitRate)
	}
	return nil
}

// IngestConfig assembles the ingest pipeline configuration the shared
// knobs describe; zero fields fall through to the package defaults.
func (c *Common) IngestConfig() ingest.Config {
	return ingest.Config{
		Workers:    c.IngestWorkers,
		QueueDepth: c.IngestQueue,
		MaxBatch:   c.IngestBatch,
		AdmitRate:  c.AdmitRate,
	}
}

// Registry returns a fresh registry when a metrics dump was requested,
// nil otherwise (nil disables recording throughout the stack).
func (c *Common) Registry() *obs.Registry {
	if c.Metrics == "" {
		return nil
	}
	return obs.NewRegistry()
}

// ApplyTo copies the shared flags onto a spec.
func (c *Common) ApplyTo(spec *Spec) {
	spec.Faults = c.Faults
	spec.CachePolicy = c.CachePolicy
	spec.PoolBytes = c.PoolBytes
}

// DumpSnapshot writes a snapshot in the chosen format ("" writes
// nothing).
func DumpSnapshot(w io.Writer, snap *obs.Snapshot, format string) error {
	switch format {
	case "":
		return nil
	case "json":
		return obs.WriteJSON(w, snap)
	default:
		return obs.WritePrometheus(w, snap)
	}
}

// DumpRegistry snapshots and writes a registry; nil registries and empty
// formats write nothing.
func DumpRegistry(w io.Writer, reg *obs.Registry, format string) error {
	if reg == nil || format == "" {
		return nil
	}
	return DumpSnapshot(w, reg.Snapshot(), format)
}

// ServePprof runs the net/http/pprof handlers on their own mux so the
// profiling surface never shares a listener with anything public. It
// blocks; run it in a goroutine. logf receives startup and error lines
// (log.Printf-shaped).
func ServePprof(addr string, logf func(format string, args ...any)) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logf("pprof listening on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logf("pprof: %v", err)
	}
}
