// Package trace serializes and parses the dataset formats mirroring the
// paper's three traces (§3): the workload trace (user requests), and the
// combined pre-downloading/fetching task trace. Both CSV (for spreadsheet
// analysis) and JSON Lines (for tooling) encodings are provided, with
// loss-free round trips for every field the analyses consume.
package trace

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"odr/internal/cloud"
	"odr/internal/workload"
)

// WorkloadRecord is one line of the workload trace: an offline-downloading
// request with the fields the paper's logs carry (user ID, ISP in lieu of
// a raw IP, access bandwidth, request time, file type/size/link/protocol).
type WorkloadRecord struct {
	UserID    int     `json:"user_id"`
	ISP       string  `json:"isp"`
	AccessBW  float64 `json:"access_bw"` // bytes/second; 0 if unreported
	TimeMS    int64   `json:"time_ms"`   // offset from trace start
	FileID    string  `json:"file_id"`   // MD5 hex
	Size      int64   `json:"size"`
	Class     string  `json:"class"`
	Protocol  string  `json:"protocol"`
	SourceURL string  `json:"source_url"`
	Weekly    int     `json:"weekly_requests"`
}

// FromRequest converts a request into its trace record. Users who did not
// report bandwidth are recorded with AccessBW 0, as in the paper's logs.
func FromRequest(r workload.Request) WorkloadRecord {
	bw := r.User.AccessBW
	if !r.User.ReportsBW {
		bw = 0
	}
	return WorkloadRecord{
		UserID:    r.User.ID,
		ISP:       r.User.ISP.String(),
		AccessBW:  bw,
		TimeMS:    r.Time.Milliseconds(),
		FileID:    r.File.ID.String(),
		Size:      r.File.Size,
		Class:     r.File.Class.String(),
		Protocol:  r.File.Protocol.String(),
		SourceURL: r.File.SourceURL,
		Weekly:    r.File.WeeklyRequests,
	}
}

// ToRequest reconstructs a request. Callers wanting shared *User/*FileMeta
// identities across records should use ReadWorkloadCSV/JSONL, which
// deduplicate by ID.
func (rec WorkloadRecord) ToRequest() (workload.Request, error) {
	isp, err := workload.ParseISP(rec.ISP)
	if err != nil {
		return workload.Request{}, err
	}
	class, err := workload.ParseFileClass(rec.Class)
	if err != nil {
		return workload.Request{}, err
	}
	proto, err := workload.ParseProtocol(rec.Protocol)
	if err != nil {
		return workload.Request{}, err
	}
	id, err := parseFileID(rec.FileID)
	if err != nil {
		return workload.Request{}, err
	}
	if rec.Size < 0 {
		return workload.Request{}, fmt.Errorf("trace: negative size %d", rec.Size)
	}
	return workload.Request{
		User: &workload.User{
			ID: rec.UserID, ISP: isp,
			AccessBW: rec.AccessBW, ReportsBW: rec.AccessBW > 0,
		},
		File: &workload.FileMeta{
			ID: id, Size: rec.Size, Class: class, Protocol: proto,
			SourceURL: rec.SourceURL, WeeklyRequests: rec.Weekly,
		},
		Time: time.Duration(rec.TimeMS) * time.Millisecond,
	}, nil
}

func parseFileID(s string) (workload.FileID, error) {
	var id workload.FileID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("trace: bad file ID %q: %w", s, err)
	}
	if len(b) != len(id) {
		return id, fmt.Errorf("trace: file ID %q has %d bytes, want %d", s, len(b), len(id))
	}
	copy(id[:], b)
	return id, nil
}

var workloadHeader = []string{
	"user_id", "isp", "access_bw", "time_ms", "file_id",
	"size", "class", "protocol", "source_url", "weekly_requests",
}

// WriteWorkloadCSV writes requests as CSV with a header row. It is a thin
// wrapper over WriteWorkloadCSVStream.
func WriteWorkloadCSV(w io.Writer, reqs []workload.Request) error {
	return WriteWorkloadCSVStream(w, workload.NewSliceSource(reqs))
}

// ReadWorkloadCSV parses a workload CSV, deduplicating users and files by
// ID so identity-based analyses keep working. It is a thin wrapper over
// StreamWorkloadCSV; use the stream form directly when the trace need not
// be resident.
func ReadWorkloadCSV(r io.Reader) ([]workload.Request, error) {
	src, err := StreamWorkloadCSV(r)
	if err != nil {
		return nil, err
	}
	return workload.Collect(src)
}

func checkHeader(h []string) error {
	if len(h) != len(workloadHeader) {
		return fmt.Errorf("trace: header has %d fields, want %d", len(h), len(workloadHeader))
	}
	for i, f := range workloadHeader {
		if h[i] != f {
			return fmt.Errorf("trace: header field %d is %q, want %q", i, h[i], f)
		}
	}
	return nil
}

func rowToRecord(row []string) (WorkloadRecord, error) {
	var rec WorkloadRecord
	var err error
	if rec.UserID, err = strconv.Atoi(row[0]); err != nil {
		return rec, fmt.Errorf("user_id: %w", err)
	}
	rec.ISP = row[1]
	if rec.AccessBW, err = strconv.ParseFloat(row[2], 64); err != nil {
		return rec, fmt.Errorf("access_bw: %w", err)
	}
	if rec.TimeMS, err = strconv.ParseInt(row[3], 10, 64); err != nil {
		return rec, fmt.Errorf("time_ms: %w", err)
	}
	rec.FileID = row[4]
	if rec.Size, err = strconv.ParseInt(row[5], 10, 64); err != nil {
		return rec, fmt.Errorf("size: %w", err)
	}
	rec.Class = row[6]
	rec.Protocol = row[7]
	rec.SourceURL = row[8]
	if rec.Weekly, err = strconv.Atoi(row[9]); err != nil {
		return rec, fmt.Errorf("weekly_requests: %w", err)
	}
	return rec, nil
}

// identityPool deduplicates users and files by ID when parsing.
type identityPool struct {
	users map[int]*workload.User
	files map[workload.FileID]*workload.FileMeta
}

func newIdentityPool() *identityPool {
	return &identityPool{
		users: make(map[int]*workload.User),
		files: make(map[workload.FileID]*workload.FileMeta),
	}
}

func (p *identityPool) intern(r workload.Request) workload.Request {
	if u, ok := p.users[r.User.ID]; ok {
		r.User = u
	} else {
		p.users[r.User.ID] = r.User
	}
	if f, ok := p.files[r.File.ID]; ok {
		r.File = f
	} else {
		p.files[r.File.ID] = r.File
	}
	return r
}

// WriteWorkloadJSONL writes requests as JSON Lines. It is a thin wrapper
// over WriteWorkloadJSONLStream.
func WriteWorkloadJSONL(w io.Writer, reqs []workload.Request) error {
	return WriteWorkloadJSONLStream(w, workload.NewSliceSource(reqs))
}

// ReadWorkloadJSONL parses JSON Lines, deduplicating identities as the CSV
// reader does. It is a thin wrapper over StreamWorkloadJSONL, which reads
// a record at a time with an explicit line-length limit well above
// bufio.Scanner's 64 KB default, so records with very long source_url
// fields survive the trip.
func ReadWorkloadJSONL(r io.Reader) ([]workload.Request, error) {
	return workload.Collect(StreamWorkloadJSONL(r))
}

// TaskLine is the serialized form of a completed task (the union of the
// paper's pre-downloading and fetching traces).
type TaskLine struct {
	WorkloadRecord
	CacheHit     bool    `json:"cache_hit"`
	PreSuccess   bool    `json:"pre_success"`
	PreDelayMS   int64   `json:"pre_delay_ms"`
	PreRate      float64 `json:"pre_rate"`
	PreTraffic   float64 `json:"pre_traffic"`
	FailureCause string  `json:"failure_cause,omitempty"`
	Fetched      bool    `json:"fetched"`
	Rejected     bool    `json:"rejected"`
	FetchDelayMS int64   `json:"fetch_delay_ms"`
	FetchRate    float64 `json:"fetch_rate"`
	FetchTraffic float64 `json:"fetch_traffic"`
	Privileged   bool    `json:"privileged"`
	Impediment   string  `json:"impediment"`
}

// FromTaskRecord flattens a simulator record.
func FromTaskRecord(r *cloud.TaskRecord) TaskLine {
	return TaskLine{
		WorkloadRecord: FromRequest(workload.Request{
			User: r.User, File: r.File, Time: r.RequestTime,
		}),
		CacheHit:     r.CacheHit,
		PreSuccess:   r.PreSuccess,
		PreDelayMS:   r.PreDelay().Milliseconds(),
		PreRate:      r.PreRate,
		PreTraffic:   r.PreTraffic,
		FailureCause: r.FailureCause,
		Fetched:      r.Fetched,
		Rejected:     r.Rejected,
		FetchDelayMS: r.FetchDelay().Milliseconds(),
		FetchRate:    r.FetchRate,
		FetchTraffic: r.FetchTraffic,
		Privileged:   r.Privileged,
		Impediment:   r.Impediment.String(),
	}
}

// WriteTasksJSONL writes simulator task records as JSON Lines.
func WriteTasksJSONL(w io.Writer, recs []*cloud.TaskRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(FromTaskRecord(r)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTasksJSONL parses task lines back.
func ReadTasksJSONL(r io.Reader) ([]TaskLine, error) {
	dec := json.NewDecoder(r)
	var out []TaskLine
	for i := 0; ; i++ {
		var line TaskLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", i+1, err)
		}
		out = append(out, line)
	}
	return out, nil
}
