package odrweb

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"odr/internal/backend"
	"odr/internal/core"
	"odr/internal/ingest"
)

// The batched decide API: POST /api/v1/decide/batch (also mounted at
// /v1/decide/batch) carries many decide requests per HTTP round trip.
// Items flow through the ingest pipeline — per-user admission control,
// bounded queues, batch-amortized processing — and the response reports
// one result per item, in order.

// BatchItem is one decide request inside a batch call.
type BatchItem struct {
	// Link is the source link, as in the single-decide API.
	Link string `json:"link"`
	// User is the admission-control identity this item spends budget
	// under. Empty items share the connection's remote-address budget.
	User string `json:"user,omitempty"`
	// Aux overrides the batch-level default auxiliary info for this item.
	Aux *AuxInfo `json:"aux,omitempty"`
}

// BatchRequest is the JSON body of POST /api/v1/decide/batch.
type BatchRequest struct {
	// Aux is the default auxiliary info for items that carry none. The
	// single-decide cookie fallback does not apply to batches.
	Aux *AuxInfo `json:"aux,omitempty"`
	// Items are the decide requests; at most MaxBatchItems per call.
	Items []BatchItem `json:"items"`
}

// BatchResult is one item's outcome. Status speaks HTTP: 200 with a
// Decision, or 4xx/5xx with an Error (429 adds a Retry-After hint).
type BatchResult struct {
	Status            int             `json:"status"`
	Error             string          `json:"error,omitempty"`
	RetryAfterSeconds float64         `json:"retry_after_seconds,omitempty"`
	Decision          *DecideResponse `json:"decision,omitempty"`
}

// BatchResponse is the JSON answer: Results[i] corresponds to Items[i].
type BatchResponse struct {
	Results  []BatchResult `json:"results"`
	Admitted int           `json:"admitted"`
	Rejected int           `json:"rejected"`
}

// MaxBatchItems caps the items one batch call may carry; larger batches
// are rejected outright (the body-size cap usually bites first).
const MaxBatchItems = 4096

// batchJob is the pipeline payload: the ingestor-validated input plus the
// result slot the processor fills, and the decision res points to on
// success.
type batchJob struct {
	link     string
	in       core.Input
	res      *BatchResult
	decision DecideResponse
}

// StartIngest mounts the batched decide pipeline on the server. cfg's
// Registry is replaced by the server's own so odr_ingest_* series appear
// on /metrics. Call once, before serving traffic; without it the batch
// endpoint answers 503.
func (s *Server) StartIngest(cfg ingest.Config) {
	if s.ingest != nil {
		panic("odrweb: ingest already started")
	}
	cfg.Registry = s.reg
	s.ingest = ingest.New(cfg, s.processBatch)
}

// CloseIngest drains the ingest pipeline: queued items are processed,
// new submissions are refused. Call after the HTTP listener has drained
// (handlers wait on their items, so shut the listener first).
func (s *Server) CloseIngest(ctx context.Context) error {
	if s.ingest == nil {
		return nil
	}
	return s.ingest.Close(ctx)
}

// Ingest exposes the pipeline (nil when not started), for tests and
// operational introspection.
func (s *Server) Ingest() *ingest.Pipeline[*batchJob] { return s.ingest }

func (r *BatchResult) reject(status int, msg string) {
	r.Status = status
	r.Error = msg
}

// handleBatch is the ingestor stage: decode, validate, admit, and
// enqueue every item, then wait for the processors to fill the results.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.ingest == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: "batch ingest is not enabled on this server"})
		return
	}
	st := &s.met.batch
	start := time.Now()
	var req BatchRequest
	ok := s.decodeBody(w, r, &req, st.fallback)
	t := lap(st.decode, start)
	if !ok {
		return
	}
	if len(req.Items) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty items"})
		return
	}
	if len(req.Items) > MaxBatchItems {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			ErrorResponse{Error: "batch exceeds " + strconv.Itoa(MaxBatchItems) + " items"})
		return
	}

	// One slab of results and one of jobs per call, never pooled: after a
	// cancelled Wait the workers may still be writing them. The admitted
	// jobs and their users' shard keys go to the pipeline in one call.
	results := make([]BatchResult, len(req.Items))
	jobs := make([]batchJob, len(req.Items))
	subs := make([]*batchJob, 0, len(req.Items))
	keys := make([]uint64, 0, len(req.Items))
	var maxRetry time.Duration
	for i := range req.Items {
		it := &req.Items[i]
		res := &results[i]
		if it.Link == "" {
			res.reject(http.StatusBadRequest, "missing link")
			continue
		}
		aux := it.Aux
		if aux == nil {
			aux = req.Aux
		}
		if aux == nil {
			res.reject(http.StatusBadRequest, "no auxiliary info on the item or the batch")
			continue
		}
		in, err := buildInput(aux)
		if err != nil {
			res.reject(http.StatusBadRequest, err.Error())
			continue
		}
		user := it.User
		if user == "" {
			user = remoteHost(r)
		}
		if ok, retry := s.ingest.Admit(user); !ok {
			res.reject(http.StatusTooManyRequests, "user over admission budget")
			res.RetryAfterSeconds = retry.Seconds()
			if retry > maxRetry {
				maxRetry = retry
			}
			continue
		}
		job := &jobs[i]
		job.link, job.in, job.res = it.Link, in, res
		subs = append(subs, job)
		keys = append(keys, hashKey(user))
	}
	g := s.ingest.NewGroup()
	errs := make([]error, len(subs))
	admitted := s.ingest.SubmitBatch(g, keys, subs, errs)
	sawOverload := admitted < len(subs)
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ingest.ErrQueueFull):
			subs[i].res.reject(http.StatusServiceUnavailable, "ingest queue full")
		default:
			subs[i].res.reject(http.StatusServiceUnavailable, "server is draining")
		}
	}
	t = lap(st.submit, t)

	if admitted > 0 {
		if err := g.Wait(r.Context()); err != nil {
			// The caller stopped waiting; workers may still be writing
			// result slots, so serialize nothing from them.
			writeJSON(w, http.StatusServiceUnavailable,
				ErrorResponse{Error: "request cancelled while batch was in flight: " + err.Error()})
			return
		}
	}
	t = lap(st.wait, t)

	status := http.StatusOK
	if admitted == 0 {
		// Every item bounced: answer with the backpressure class so
		// naive clients back off without parsing per-item results.
		switch {
		case sawOverload:
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		case maxRetry > 0:
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After",
				strconv.Itoa(int(math.Ceil(maxRetry.Seconds()))))
		default:
			status = http.StatusBadRequest
		}
	}
	writeBatch(w, status, &BatchResponse{
		Results:  results,
		Admitted: admitted,
		Rejected: len(req.Items) - admitted,
	})
	lap(st.encode, t)
}

// processBatch is the worker stage: it answers every job in one batch,
// probing each route's health at most once per batch and adding the
// batch's decisions to the metrics once.
func (s *Server) processBatch(jobs []*batchJob) {
	look := s.health
	if look != nil {
		memo := &healthLook{s: s}
		look = memo.look
	}
	var tally decisionTally
	for _, j := range jobs {
		rf, err := s.resolveFile(j.link)
		if err != nil {
			j.res.reject(http.StatusNotFound, err.Error())
			continue
		}
		j.decision = s.decideTallied(j.in, rf, look, &tally)
		j.res.Status = http.StatusOK
		j.res.Decision = &j.decision
	}
	s.met.fold(&tally)
}

// hashKey shards users across the pipeline's queues.
func hashKey(user string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(user))
	return h.Sum64()
}

// remoteHost extracts the connection's host part as the default
// admission identity.
func remoteHost(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// healthLook memoizes the server's health hook for one batch: at most
// one probe per route per batch, mirroring how a production router
// snapshots backend state per scheduling round.
type healthLook struct {
	s    *Server
	have [core.NumRoutes]bool
	h    [core.NumRoutes]backend.Health
}

func (l *healthLook) look(r core.Route) backend.Health {
	i := int(r)
	if !l.have[i] {
		l.h[i] = l.s.health(r)
		l.have[i] = true
	}
	return l.h[i]
}
