// Package odrweb exposes the ODR decision engine as a web service, the
// deployment form of §6.1: users submit the link to an original data
// source plus auxiliary information (IP-derived ISP, access bandwidth,
// smart-AP storage type), and ODR answers with a redirection decision.
// Auxiliary information is remembered in a cookie so users do not retype
// it (§6.1 footnote). ODR never transfers file content itself, so the
// service is lightweight enough for a $20/month VM.
package odrweb

import (
	"bytes"
	"crypto/md5"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/ingest"
	"odr/internal/obs"
	"odr/internal/storage"
	"odr/internal/workload"
)

// Resolver maps a source link to file metadata (protocol, size,
// popularity key). Production Xuanfeng resolves links against its content
// database; tests and demos use a MapResolver.
type Resolver interface {
	Resolve(link string) (*workload.FileMeta, error)
}

// MapResolver resolves links from an in-memory index.
type MapResolver map[string]*workload.FileMeta

// Resolve implements Resolver.
func (m MapResolver) Resolve(link string) (*workload.FileMeta, error) {
	if f, ok := m[link]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("odrweb: unknown source link %q", link)
}

// NewMapResolver indexes files by their source URL.
func NewMapResolver(files []*workload.FileMeta) MapResolver {
	m := make(MapResolver, len(files))
	for _, f := range files {
		m[f.SourceURL] = f
	}
	return m
}

// FallbackResolver tries a primary resolver and synthesizes metadata for
// unknown links: a file nobody has requested yet is, by definition,
// unpopular and uncached, which is exactly how the production content
// database treats first-seen links. The protocol is inferred from the
// link scheme.
type FallbackResolver struct {
	Primary Resolver
}

// Resolve implements Resolver.
func (r FallbackResolver) Resolve(link string) (*workload.FileMeta, error) {
	if r.Primary != nil {
		if f, err := r.Primary.Resolve(link); err == nil {
			return f, nil
		}
	}
	if link == "" {
		return nil, errors.New("odrweb: empty link")
	}
	return &workload.FileMeta{
		ID:        md5.Sum([]byte(link)),
		Protocol:  protocolOf(link),
		SourceURL: link,
		// Size and WeeklyRequests stay zero: unknown and unpopular.
	}, nil
}

// protocolOf infers the transfer protocol from a link's scheme.
func protocolOf(link string) workload.Protocol {
	switch {
	case strings.HasPrefix(link, "magnet:"):
		return workload.ProtoBitTorrent
	case strings.HasPrefix(link, "ed2k:"):
		return workload.ProtoEMule
	case strings.HasPrefix(link, "ftp://"):
		return workload.ProtoFTP
	default:
		return workload.ProtoHTTP
	}
}

// DecideRequest is the JSON body of POST /api/v1/decide.
type DecideRequest struct {
	// Link is the HTTP/FTP/P2P link to the original data source.
	Link string `json:"link"`
	// Aux is the auxiliary information; omitted fields fall back to the
	// remembered cookie.
	Aux *AuxInfo `json:"aux,omitempty"`
}

// AuxInfo is the user-supplied context of §6.1.
type AuxInfo struct {
	ISP       string  `json:"isp"`
	AccessBW  float64 `json:"access_bw"` // bytes/second
	HasAP     bool    `json:"has_ap"`
	APStorage string  `json:"ap_storage,omitempty"` // e.g. "usb-flash"
	APFS      string  `json:"ap_fs,omitempty"`      // e.g. "ntfs"
	APCPUGHz  float64 `json:"ap_cpu_ghz,omitempty"`
}

// DecideResponse is the JSON answer.
type DecideResponse struct {
	Route string `json:"route"`
	// Backend names the backend-layer implementation the route resolves
	// to (routes that differ only in user-visible phrasing — e.g. cloud
	// pre-download vs. cloud fetch — share a backend).
	Backend   string `json:"backend"`
	Source    string `json:"source"`
	Reason    string `json:"reason"`
	Addresses []int  `json:"addresses"`
	// Band and Cached echo what ODR learned from the content database.
	Band   string `json:"band"`
	Cached bool   `json:"cached"`
	// Health reports the chosen backend's current health ("ok",
	// "degraded", "unavailable"); "ok" when no health hook is installed.
	Health string `json:"health"`
	// Rerouted is set when the health hook moved the decision off the
	// preferred backend; Reason then carries the degrade token
	// (circuit_open or degraded).
	Rerouted bool `json:"rerouted,omitempty"`
}

// ErrorResponse is the JSON error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// auxCookie is the cookie remembering auxiliary information.
const auxCookie = "odr_aux"

// HealthFunc reports the current health of a route's backend. The
// replay engine asks its fault injector; cmd/odrserver derives it from a
// faults.Clock on wall time. It must be safe for concurrent use.
type HealthFunc func(core.Route) backend.Health

// DefaultMaxBodyBytes caps request bodies when SetMaxBodyBytes is not
// called: 1 MiB comfortably fits a full MaxBatchItems batch while keeping
// a hostile POST from buffering unboundedly.
const DefaultMaxBodyBytes = 1 << 20

// Server is the ODR web service.
type Server struct {
	advisor  *core.Advisor
	resolver Resolver
	mux      *http.ServeMux
	handler  http.Handler
	logger   *log.Logger
	started  time.Time
	reg      *obs.Registry
	met      webMetrics
	health   HealthFunc
	maxBody  int64
	ingest   *ingest.Pipeline[*batchJob]

	// poolStats, when installed, snapshots the cloud storage pool backing
	// the advisor's cache probe; each metrics scrape refreshes the
	// odr_pool_* series from it. poolPrev remembers the last snapshot so
	// monotonic pool counters translate into counter deltas.
	poolMu    sync.Mutex
	poolStats func() cloud.PoolStats
	poolPrev  cloud.PoolStats
}

// NewServer assembles the service. logger may be nil to disable logging.
// The server owns its metrics registry (see Metrics); every request
// passes through the latency/status middleware and /metrics serves the
// Prometheus exposition.
func NewServer(advisor *core.Advisor, resolver Resolver, logger *log.Logger) *Server {
	if advisor == nil || resolver == nil {
		panic("odrweb: nil advisor or resolver")
	}
	reg := obs.NewRegistry()
	s := &Server{
		advisor:  advisor,
		resolver: resolver,
		logger:   logger,
		started:  time.Now(),
		reg:      reg,
		met:      newWebMetrics(reg),
		maxBody:  DefaultMaxBodyBytes,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/decide", s.handleDecide)
	mux.HandleFunc("POST /api/v1/decide/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/decide/batch", s.handleBatch) // unversioned-prefix alias
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux = mux
	s.handler = s.met.instrument(mux)
	return s
}

// SetHealth installs the backend-health hook consulted on every decide.
// Call it before serving traffic; nil (the default) means every backend
// is always healthy.
func (s *Server) SetHealth(h HealthFunc) { s.health = h }

// SetPoolStats installs the storage-pool snapshot hook; /metrics (and
// Snapshot) then expose the pool's state and counters as odr_pool_*
// series. Call it before serving traffic; the hook must be safe for
// concurrent use.
func (s *Server) SetPoolStats(f func() cloud.PoolStats) { s.poolStats = f }

// SetMaxBodyBytes caps decide/batch request bodies at n bytes; oversized
// POSTs get a structured 413. Call before serving traffic; n must be
// positive.
func (s *Server) SetMaxBodyBytes(n int64) {
	if n <= 0 {
		panic("odrweb: max body bytes must be positive")
	}
	s.maxBody = n
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).String(),
	})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html>
<html><head><title>ODR — Offline Downloading Redirector</title></head>
<body>
<h1>ODR — Offline Downloading Redirector</h1>
<p>POST a JSON body to <code>/api/v1/decide</code> with your download link
and auxiliary information; ODR answers with the backend expected to give
the best offline-downloading experience (cloud, smart AP, your own device,
or cloud+AP).</p>
</body></html>`)
}

// decodeBody decodes a JSON request body — dst is a fresh *DecideRequest
// or *BatchRequest — under the server's byte cap, answering a structured
// 413 (oversized) or 400 (malformed) itself. A body read to EOF in fewer
// than the cap's bytes goes to the wire scanner; a body it declines, or
// one not read to its end, goes to encoding/json as the same byte stream
// (bytes read so far, then the rest), and fallback counts it. So every
// status and error text is encoding/json's.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any, fallback *obs.Counter) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	bp := wireBufs.Get().(*[]byte)
	defer putWireBuf(bp)
	// The LimitReader never asks MaxBytesReader for a byte past the cap:
	// reading ahead of encoding/json, which stops at the end of the first
	// value, must not trip the cap where it would not.
	body, err := readAll((*bp)[:0], io.LimitReader(r.Body, s.maxBody))
	*bp = body
	if err == nil && int64(len(body)) < s.maxBody && decodeWire(string(body), dst) {
		return true
	}
	fallback.Inc()
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(body), r.Body)).Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error: fmt.Sprintf("request body exceeds the %d-byte cap", mbe.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed JSON: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	st := &s.met.single
	start := time.Now()
	var req DecideRequest
	ok := s.decodeBody(w, r, &req, st.fallback)
	t := lap(st.decode, start)
	if !ok {
		return
	}
	if req.Link == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing link"})
		return
	}
	aux := req.Aux
	if aux == nil {
		var err error
		aux, err = auxFromCookie(r)
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				ErrorResponse{Error: "no auxiliary info supplied and no remembered cookie"})
			return
		}
	}
	in, err := buildInput(aux)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}

	rf, err := s.resolveFile(req.Link)
	if err != nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
		return
	}
	resp := s.decideResolved(in, rf, s.health)
	s.logf("decide link=%s band=%s cached=%v -> %s from %s (health %s)",
		req.Link, resp.Band, resp.Cached, resp.Route, resp.Source, resp.Health)
	t = lap(st.decide, t)

	// Remember the auxiliary info for next time.
	if req.Aux != nil {
		setAuxCookie(w, req.Aux)
	}
	writeDecision(w, http.StatusOK, &resp)
	lap(st.encode, t)
}

// resolvedFile is a link's per-decision file state: metadata plus the
// popularity band and cache residency ODR learned from the content
// database.
type resolvedFile struct {
	file   *workload.FileMeta
	band   workload.PopularityBand
	cached bool
}

// resolveFile resolves a link and fetches its band and cache state.
func (s *Server) resolveFile(link string) (resolvedFile, error) {
	file, err := s.resolver.Resolve(link)
	if err != nil {
		return resolvedFile{}, err
	}
	return resolvedFile{
		file:   file,
		band:   s.advisor.DB.Band(file.ID),
		cached: s.advisor.Cache.Contains(file.ID),
	}, nil
}

// decideResolved completes a decision for a validated input and resolved
// file, consulting look (nil = always healthy) for backend health, and
// adds it to the metrics.
func (s *Server) decideResolved(in core.Input, rf resolvedFile, look HealthFunc) DecideResponse {
	var tally decisionTally
	resp := s.decideTallied(in, rf, look, &tally)
	s.met.fold(&tally)
	return resp
}

// decideTallied is decideResolved counting into tally, the tail the
// single and the batched decide paths share: a batch folds its tally
// once for all its decisions.
func (s *Server) decideTallied(in core.Input, rf resolvedFile, look HealthFunc, tally *decisionTally) DecideResponse {
	in.Protocol = rf.file.Protocol
	in.Band = rf.band
	in.Cached = rf.cached
	if rf.file.Size > 0 {
		tally.bytes.Observe(uint64(rf.file.Size))
	}
	dec := core.Decide(in)
	dec, in, health, reasons, hops := backend.Degrade(look, in, dec)
	for _, reason := range reasons[:hops] {
		tally.reroute(reason)
	}
	tally.routes[dec.Route]++
	return DecideResponse{
		Route:     dec.Route.String(),
		Backend:   backend.NameForRoute(dec.Route),
		Source:    dec.Source.String(),
		Reason:    dec.Reason,
		Addresses: dec.Addresses,
		Band:      in.Band.String(),
		Cached:    in.Cached,
		Health:    health.String(),
		Rerouted:  hops > 0,
	}
}

// buildInput validates and converts auxiliary info into a decision input
// (without the file-dependent fields).
func buildInput(aux *AuxInfo) (core.Input, error) {
	var in core.Input
	isp, err := workload.ParseISP(aux.ISP)
	if err != nil {
		return in, err
	}
	if aux.AccessBW <= 0 {
		return in, errors.New("odrweb: access_bw must be positive")
	}
	in.ISP = isp
	in.AccessBW = aux.AccessBW
	if aux.HasAP {
		devType, err := storage.ParseDeviceType(aux.APStorage)
		if err != nil {
			return in, err
		}
		fs, err := storage.ParseFilesystem(aux.APFS)
		if err != nil {
			return in, err
		}
		if aux.APCPUGHz <= 0 {
			return in, errors.New("odrweb: ap_cpu_ghz must be positive when has_ap")
		}
		in.HasAP = true
		in.APStorage = storage.Device{Type: devType, FS: fs}
		in.APCPUGHz = aux.APCPUGHz
	}
	return in, nil
}

func setAuxCookie(w http.ResponseWriter, aux *AuxInfo) {
	raw, ok := appendAux(make([]byte, 0, 128), aux) // json.Marshal's bytes
	if !ok {
		return // best effort; the cookie is a convenience
	}
	http.SetCookie(w, &http.Cookie{
		Name:     auxCookie,
		Value:    base64.URLEncoding.EncodeToString(raw),
		Path:     "/",
		MaxAge:   int((30 * 24 * time.Hour).Seconds()),
		HttpOnly: true,
	})
}

func auxFromCookie(r *http.Request) (*AuxInfo, error) {
	c, err := r.Cookie(auxCookie)
	if err != nil {
		return nil, err
	}
	raw, err := base64.URLEncoding.DecodeString(c.Value)
	if err != nil {
		return nil, err
	}
	var aux AuxInfo
	if err := json.Unmarshal(raw, &aux); err != nil {
		return nil, err
	}
	return &aux, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
