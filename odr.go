// Package odr is the public API of this repository: a full reproduction of
// "Offline Downloading in China: A Comparative Study" (IMC 2015). It
// bundles, behind one import path:
//
//   - the ODR decision engine (the paper's contribution): Decide and the
//     Advisor plumbing,
//   - the simulated substrates — synthetic workload generation, the
//     Xuanfeng-style cloud, the three smart-AP models and their storage
//     write-path physics,
//   - the replay harnesses of §5.1 and §6.2,
//   - the experiment suite that regenerates every table and figure of the
//     paper's evaluation,
//   - the deployable ODR web service and client.
//
// Internal packages carry the implementations; this package re-exports the
// surface a downstream user needs. See the examples/ directory for
// runnable walkthroughs.
package odr

import (
	"log"
	"time"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/experiments"
	"odr/internal/odrweb"
	"odr/internal/replay"
	"odr/internal/sim"
	"odr/internal/smartap"
	"odr/internal/storage"
	"odr/internal/workload"
)

// Decision-engine surface (internal/core).
type (
	// Input is everything ODR knows when deciding a redirection.
	Input = core.Input
	// Decision is ODR's answer: a route, a source, and the bottlenecks
	// it addresses.
	Decision = core.Decision
	// Route says which machine performs the (pre-)download.
	Route = core.Route
	// Source says where the bytes originate.
	Source = core.Source
	// Advisor glues Decide to live popularity and cache state.
	Advisor = core.Advisor
	// APInfo describes a user's smart AP for the Advisor.
	APInfo = core.APInfo
)

// Routes.
const (
	RouteUserDevice       = core.RouteUserDevice
	RouteSmartAP          = core.RouteSmartAP
	RouteCloud            = core.RouteCloud
	RouteCloudThenAP      = core.RouteCloudThenAP
	RouteCloudPreDownload = core.RouteCloudPreDownload
)

// Sources.
const (
	SourceOriginal = core.SourceOriginal
	SourceCloud    = core.SourceCloud
)

// Decide runs the paper's Figure 15 state machine on one request.
func Decide(in Input) Decision { return core.Decide(in) }

// Workload surface (internal/workload).
type (
	// Trace is a synthetic week of offline-downloading requests.
	Trace = workload.Trace
	// TraceConfig parameterizes trace generation.
	TraceConfig = workload.Config
	// Request is one offline-downloading request.
	Request = workload.Request
	// FileMeta describes one unique file.
	FileMeta = workload.FileMeta
	// User describes one requesting user.
	User = workload.User
)

// DefaultTraceConfig returns the §3-calibrated generator configuration at
// the given unique-file scale (the paper's week has 563,517 files).
func DefaultTraceConfig(numFiles int, seed uint64) TraceConfig {
	return workload.DefaultConfig(numFiles, seed)
}

// GenerateTrace synthesizes a workload trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return workload.Generate(cfg) }

// UnicomSample draws the §5.1 replay sample from a trace.
func UnicomSample(t *Trace, n int, seed uint64) []Request {
	return workload.UnicomSample(t, n, seed)
}

// Streaming surface (internal/workload): the bounded-memory request
// pipeline. A RequestSource yields requests one at a time in global-index
// order; every streaming consumer is byte-identical to its slice
// counterpart for the same seed.
type (
	// RequestSource is a pull iterator over a request stream.
	RequestSource = workload.RequestSource
	// StreamTrace is a trace whose request log is regenerated chunk by
	// chunk instead of held resident.
	StreamTrace = workload.StreamTrace
)

// DefaultStreamChunk is the standard streaming chunk size in requests.
const DefaultStreamChunk = workload.DefaultStreamChunk

// GenerateTraceStream synthesizes a workload week whose requests stream
// in chunks of chunkSize; only the file/user populations stay resident.
func GenerateTraceStream(cfg TraceConfig, chunkSize int) (*StreamTrace, error) {
	return workload.GenerateStream(cfg, chunkSize)
}

// NewSliceSource adapts an in-memory request slice to a RequestSource.
func NewSliceSource(reqs []Request) RequestSource { return workload.NewSliceSource(reqs) }

// CollectRequests drains a RequestSource into a slice.
func CollectRequests(src RequestSource) ([]Request, error) { return workload.Collect(src) }

// UnicomSampleStream draws the §5.1 replay sample from a request stream
// without materializing the full trace.
func UnicomSampleStream(src RequestSource, n int, seed uint64) ([]Request, error) {
	return workload.UnicomSampleSource(src, n, seed)
}

// Cloud surface (internal/cloud).
type (
	// Cloud is the Xuanfeng-style cloud simulator.
	Cloud = cloud.Cloud
	// CloudConfig parameterizes it.
	CloudConfig = cloud.Config
	// TaskRecord is one simulated offline-downloading task end to end.
	TaskRecord = cloud.TaskRecord
)

// DefaultCloudConfig returns the §2.1/§4 calibration at the given scale
// relative to production Xuanfeng.
func DefaultCloudConfig(scale float64, seed uint64) CloudConfig {
	return cloud.DefaultConfig(scale, seed)
}

// SimulateWeek runs a trace through a freshly built cloud (pre-warmed
// cache, Figure 11 burden sampling on) and returns the completed
// simulator for inspection.
func SimulateWeek(t *Trace, cfg CloudConfig) *Cloud {
	eng := sim.New()
	c := cloud.New(cfg, eng)
	c.Prewarm(t.Files)
	c.RunTrace(t)
	return c
}

// Smart-AP surface (internal/smartap, internal/storage).
type (
	// AP is one smart access point instance.
	AP = smartap.AP
	// StorageDevice is a device+filesystem configuration.
	StorageDevice = storage.Device
)

// The three benchmarked devices.
var (
	NewHiWiFi = smartap.NewHiWiFi
	NewMiWiFi = smartap.NewMiWiFi
	NewNewifi = smartap.NewNewifi
)

// BenchmarkedAPs returns the paper's three devices.
func BenchmarkedAPs() []*AP { return smartap.Benchmarked() }

// Backend surface (internal/backend): the pluggable layer the replay
// engine executes decisions on.
type (
	// Backend is one place a download can run (cloud, smart AP, user
	// device, cloud+AP).
	Backend = backend.Backend
	// BackendSet bundles the four implementations over one shared cloud.
	BackendSet = backend.Set
	// BackendRequest is one environment-bound replay request.
	BackendRequest = backend.Request
)

// NewBackendSet builds the standard backend fleet over a file population.
func NewBackendSet(files []*FileMeta, cfg CloudConfig, seed uint64) *BackendSet {
	return backend.NewSet(files, cfg, seed)
}

// BackendNameForRoute names the backend a decision route resolves to.
func BackendNameForRoute(r Route) string { return backend.NameForRoute(r) }

// Replay surface (internal/replay).
type (
	// APBench is the §5 smart-AP benchmark result.
	APBench = replay.APBench
	// ODRResult is the §6.2 ODR replay result.
	ODRResult = replay.ODRResult
	// ReplayOptions tunes an ODR replay (including ablations and the
	// engine shard count).
	ReplayOptions = replay.Options
)

// RunAPBenchmarkStream replays a request stream across APs per §5.1
// without holding it; results are identical for any shard count.
func RunAPBenchmarkStream(src RequestSource, aps []*AP, seed uint64, shards int) (*APBench, error) {
	return replay.RunAPBenchmarkStream(src, aps, seed, shards)
}

// RunODRStream replays a request stream through the ODR decision
// procedure per §6.2: one reader goroutine feeds per-shard bounded
// channels, so a source that knows its length (the generator, a
// seekable bin trace) is never resident as a slice. The result still
// grows with the stream: one task per request, each embedding its
// request.
func RunODRStream(src RequestSource, files []*FileMeta, aps []*AP, opts ReplayOptions) (*ODRResult, error) {
	return replay.RunODRStream(src, files, aps, opts)
}

// Experiment surface (internal/experiments).
type (
	// Lab memoizes the shared artifacts behind the experiment suite.
	Lab = experiments.Lab
	// LabConfig sizes an experiment run.
	LabConfig = experiments.Config
	// Report is one regenerated table or figure.
	Report = experiments.Report
)

// NewLab builds an experiment lab.
func NewLab(cfg LabConfig) *Lab { return experiments.NewLab(cfg) }

// DefaultLabConfig is the standard experiment scale.
func DefaultLabConfig() LabConfig { return experiments.Default() }

// Web-service surface (internal/odrweb).
type (
	// WebServer is the deployable ODR web service.
	WebServer = odrweb.Server
	// WebClient talks to an ODR web service.
	WebClient = odrweb.Client
	// AuxInfo is the user-supplied auxiliary information of §6.1.
	AuxInfo = odrweb.AuxInfo
	// Resolver maps source links to file metadata.
	Resolver = odrweb.Resolver
)

// NewWebServer assembles the ODR web service.
func NewWebServer(advisor *Advisor, resolver Resolver, logger *log.Logger) *WebServer {
	return odrweb.NewServer(advisor, resolver, logger)
}

// NewWebClient returns a client for an ODR service.
func NewWebClient(baseURL string) (*WebClient, error) {
	return odrweb.NewClient(baseURL, nil)
}

// NewMapResolver indexes files by source URL for the web service.
func NewMapResolver(files []*FileMeta) Resolver { return odrweb.NewMapResolver(files) }

// Version identifies this reproduction release.
const Version = "1.0.0"

// FullWeekSpan is the duration the paper's trace covers.
const FullWeekSpan = 7 * 24 * time.Hour
