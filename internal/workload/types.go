// Package workload defines the offline-downloading domain model (files,
// users, requests) and a synthetic trace generator calibrated to the
// workload characteristics published in §3 of the paper: file-type and
// protocol mixes, the file-size distribution of Figure 5, the three-band
// popularity skew (93.2 % unpopular files receiving 36 % of requests,
// 0.84 % highly popular files receiving 39 %), and a diurnal 7-day arrival
// process.
package workload

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"
)

// Protocol is the file-transfer protocol hosting the original data source.
type Protocol uint8

// Protocols observed in the Xuanfeng workload trace (§3): 68 % BitTorrent,
// 19 % eMule, 13 % HTTP or FTP.
const (
	ProtoBitTorrent Protocol = iota
	ProtoEMule
	ProtoHTTP
	ProtoFTP
	protoCount
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoBitTorrent:
		return "bittorrent"
	case ProtoEMule:
		return "emule"
	case ProtoHTTP:
		return "http"
	case ProtoFTP:
		return "ftp"
	}
	return fmt.Sprintf("protocol(%d)", uint8(p))
}

// IsP2P reports whether the protocol is peer-to-peer (BitTorrent or eMule).
// 87 % of requested files are hosted in P2P data swarms.
func (p Protocol) IsP2P() bool { return p == ProtoBitTorrent || p == ProtoEMule }

// ParseProtocol converts a protocol name back to its enum value.
func ParseProtocol(s string) (Protocol, error) {
	for p := Protocol(0); p < protoCount; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown protocol %q", s)
}

// FileClass is the coarse content type of a requested file.
type FileClass uint8

// File classes. Videos dominate the workload (75 % of requests); software
// packages account for another 15 %.
const (
	ClassVideo FileClass = iota
	ClassSoftware
	ClassDocument
	ClassImage
	classCount
)

// String returns the class name.
func (c FileClass) String() string {
	switch c {
	case ClassVideo:
		return "video"
	case ClassSoftware:
		return "software"
	case ClassDocument:
		return "document"
	case ClassImage:
		return "image"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseFileClass converts a class name back to its enum value.
func ParseFileClass(s string) (FileClass, error) {
	for c := FileClass(0); c < classCount; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown file class %q", s)
}

// ISP identifies one of China's major ISPs, mirroring the four providers
// inside which Xuanfeng deploys uploading servers, plus Other for users
// outside all four (those users always cross the ISP barrier when fetching
// from the cloud).
type ISP uint8

// ISPs.
const (
	ISPTelecom ISP = iota
	ISPUnicom
	ISPMobile
	ISPCERNET
	ISPOther
	ispCount
)

// String returns the ISP name.
func (i ISP) String() string {
	switch i {
	case ISPTelecom:
		return "telecom"
	case ISPUnicom:
		return "unicom"
	case ISPMobile:
		return "mobile"
	case ISPCERNET:
		return "cernet"
	case ISPOther:
		return "other"
	}
	return fmt.Sprintf("isp(%d)", uint8(i))
}

// ParseISP converts an ISP name back to its enum value.
func ParseISP(s string) (ISP, error) {
	for i := ISP(0); i < ispCount; i++ {
		if i.String() == s {
			return i, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown ISP %q", s)
}

// Supported reports whether the cloud operates uploading servers inside
// this ISP (all except Other).
func (i ISP) Supported() bool { return i != ISPOther && i < ispCount }

// NumISPs is the number of distinct ISP values, including Other.
const NumISPs = int(ispCount)

// NumProtocols and NumFileClasses are the numbers of distinct Protocol and
// FileClass values — the validation bounds for binary decoders that store
// the enums as raw bytes.
const (
	NumProtocols   = int(protoCount)
	NumFileClasses = int(classCount)
)

// FileID identifies a file by the MD5 hash of its content, exactly as the
// Xuanfeng content database does; identical content always deduplicates to
// one cache entry.
type FileID [md5.Size]byte

// String returns the hex form of the hash.
func (id FileID) String() string { return hex.EncodeToString(id[:]) }

// AppendHex appends the hex form of the hash to dst and returns the
// extended slice — the allocation-free sibling of String for hot paths
// that format IDs into reused buffers.
func (id FileID) AppendHex(dst []byte) []byte {
	return hex.AppendEncode(dst, id[:])
}

// FileIDFromIndex derives a stable synthetic FileID for the n-th file of a
// generated trace. Distinct indices yield distinct IDs.
func FileIDFromIndex(n uint64) FileID {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], n)
	return md5.Sum(buf[:])
}

// PopularityBand buckets a file by its weekly request count using the
// paper's Figure 10 thresholds: [0, 7) unpopular, [7, 84] popular,
// (84, max] highly popular.
type PopularityBand uint8

// Popularity bands.
const (
	BandUnpopular PopularityBand = iota
	BandPopular
	BandHighlyPopular
)

// String returns the band name.
func (b PopularityBand) String() string {
	switch b {
	case BandUnpopular:
		return "unpopular"
	case BandPopular:
		return "popular"
	case BandHighlyPopular:
		return "highly-popular"
	}
	return fmt.Sprintf("band(%d)", uint8(b))
}

// BandThresholdPopular and BandThresholdHighlyPopular are the weekly
// request-count boundaries between bands.
const (
	BandThresholdPopular       = 7
	BandThresholdHighlyPopular = 84
)

// BandOf classifies a weekly request count.
func BandOf(weeklyRequests int) PopularityBand {
	switch {
	case weeklyRequests < BandThresholdPopular:
		return BandUnpopular
	case weeklyRequests <= BandThresholdHighlyPopular:
		return BandPopular
	default:
		return BandHighlyPopular
	}
}

// FileMeta describes one unique file in the trace.
type FileMeta struct {
	ID        FileID
	Size      int64 // bytes
	Class     FileClass
	Protocol  Protocol
	SourceURL string // link to the original data source
	// WeeklyRequests is the number of offline-downloading requests issued
	// for this file during the trace week (its popularity).
	WeeklyRequests int
	// Ord is the file's first-appearance ordinal in the bin trace it was
	// decoded from, plus one: 0 for a file that came from anywhere else.
	// A replay's backend.Population checks it against its census and then
	// takes it in place of a map lookup.
	Ord int32
}

// Band returns the file's popularity band.
func (f *FileMeta) Band() PopularityBand { return BandOf(f.WeeklyRequests) }

// User describes one requesting user.
type User struct {
	ID int
	// ISP is the user's access network provider.
	ISP ISP
	// AccessBW is the user's downstream access bandwidth in bytes/second.
	AccessBW float64
	// ReportsBW records whether the user's client reported access
	// bandwidth (some Xuanfeng users do not; the paper approximates those
	// from peak fetching speed).
	ReportsBW bool
	// Ord is the user's first-appearance ordinal in the bin trace it was
	// decoded from, plus one, as FileMeta.Ord is the file's.
	Ord int32
}

// Request is one offline-downloading request from the workload trace.
type Request struct {
	User *User
	File *FileMeta
	// Time is the request's offset from the start of the trace week.
	Time time.Duration
}

// Trace is a complete synthetic workload: the file population, the user
// population, and the time-ordered request log.
type Trace struct {
	Files    []*FileMeta
	Users    []*User
	Requests []Request
	// Span is the duration the trace covers (normally 7 days).
	Span time.Duration
}

// TotalRequests returns the number of requests in the trace.
func (t *Trace) TotalRequests() int { return len(t.Requests) }

// RequestsPerBand returns the number of requests falling in each
// popularity band, indexed by PopularityBand.
func (t *Trace) RequestsPerBand() [3]int {
	var out [3]int
	for i := range t.Requests {
		out[t.Requests[i].File.Band()]++
	}
	return out
}

// FilesPerBand returns the number of unique files in each popularity band.
func (t *Trace) FilesPerBand() [3]int {
	var out [3]int
	for _, f := range t.Files {
		out[f.Band()]++
	}
	return out
}
