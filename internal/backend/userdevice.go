package backend

import (
	"odr/internal/smartap"
	"odr/internal/sources"
)

// UserDevice is the user's-own-device backend: a full P2P/HTTP client
// downloading directly from the original source in the foreground. There
// is no pre-download phase — the download is the fetch — so PreDownload
// is a free no-op and Fetch carries the attempt.
type UserDevice struct {
	src    *sources.Mix
	ledger Ledger
	met    backendMetrics
}

// NewUserDevice returns the user-device backend.
func NewUserDevice() *UserDevice {
	return &UserDevice{src: sources.NewMix()}
}

// Name implements Backend.
func (u *UserDevice) Name() string { return "user-device" }

// Ledger implements Backend.
func (u *UserDevice) Ledger() *Ledger { return &u.ledger }

// Probe implements Backend: the device holds nothing beforehand, but
// nothing blocks the fetch from starting immediately either.
func (u *UserDevice) Probe(*Request) bool { return false }

// PreDownload implements Backend as an immediate no-op success.
func (u *UserDevice) PreDownload(*Request) PreResult {
	return PreResult{OK: true}
}

// Fetch implements Backend: a direct download bounded by the source, the
// user's access link, and the environment ceiling. On failure the client
// stalls for the stagnation timeout before giving up, mirroring the
// cloud's failure rule.
func (u *UserDevice) Fetch(req *Request) FetchResult {
	t := req.Tally.Slot(slotUserDevice)
	u.ledger.fetch(t)
	att := u.src.AttemptFull(req.RNG, req.File)
	if !att.OK {
		u.ledger.fail(t)
		res := FetchResult{
			Delay: smartap.StagnationTimeout,
			Cause: att.Cause.String(),
		}
		u.met.fetch(t, &res, req.File)
		return res
	}
	rate := att.Rate
	if bw := req.UsableBW(); bw < rate {
		rate = bw
	}
	u.ledger.serve(t, req.File)
	res := FetchResult{OK: true, Rate: rate}
	u.met.fetch(t, &res, req.File)
	return res
}

var _ Backend = (*UserDevice)(nil)
