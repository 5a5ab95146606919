// Wire error mapping: every nperr sentinel owns exactly one stable wire
// code and HTTP status, declared in a single table so daemon, client and
// docs cannot drift apart. The server walks the table in order to classify
// an error chain; the client walks it backwards from a code to
// re-materialize the sentinel, so errors.Is works across the wire.
package wire

import (
	"errors"
	"net/http"

	"repro/internal/nperr"
)

// ErrCode is a stable wire-level error code. Codes are part of the
// protocol: they never change meaning, and new ones may only be appended.
type ErrCode string

const (
	// Sentinel-backed codes, one per nperr sentinel.
	CodeNoHealthyBackend ErrCode = "no_healthy_backend"
	CodeFleetFull        ErrCode = "fleet_full"
	CodeBackendDown      ErrCode = "backend_down"
	CodeUnknownBackend   ErrCode = "unknown_backend"
	CodeUnknownContainer ErrCode = "unknown_container"
	CodeBackendNotEmpty  ErrCode = "backend_not_empty"
	CodeMachineFull      ErrCode = "machine_full"
	CodeMachineMismatch  ErrCode = "machine_mismatch"
	CodeUntrained        ErrCode = "untrained"
	CodeBadObservation   ErrCode = "bad_observation"
	CodeInfeasible       ErrCode = "infeasible"
	CodeLogCorrupt       ErrCode = "log_corrupt"
	CodeLogClosed        ErrCode = "log_closed"
	CodeBackendAlive     ErrCode = "backend_alive"

	// Generic codes with no sentinel behind them.
	CodeBadRequest ErrCode = "bad_request" // malformed body / missing field
	CodeInternal   ErrCode = "internal"    // unclassified server-side error
)

// mapping binds one sentinel to its wire code and HTTP status.
type mapping struct {
	Code     ErrCode
	Status   int
	Sentinel error
}

// Table is the complete sentinel mapping, in classification priority
// order. Order matters because fleet errors are joined chains: a Place
// rejection wraps ErrFleetFull plus every per-member reason (machine_full,
// untrained, ...), and a fleet with no machine taking admissions (each dead,
// suspect or draining) joins ErrNoHealthyBackend on top.
// The outermost, most actionable sentinel must win, so:
//
//   - no_healthy_backend first: it is the only 503 — "back off and retry"
//     — and must not be shadowed by the capacity codes riding along.
//   - fleet_full next, ahead of the per-member codes it aggregates.
//   - everything else is mutually exclusive in practice.
//
// Status choices: 503 for no_healthy_backend and log_closed (retryable by
// the client — the daemon is overloaded or shutting down); capacity and
// state conflicts are 409 (retrying unchanged is pointless); unknown names
// are 404; semantically invalid requests 422; log_corrupt is the one 500 —
// the daemon's durable state is damaged and no request can fix it.
//
//numalint:errtable repro/internal/nperr
var Table = []mapping{
	{CodeNoHealthyBackend, http.StatusServiceUnavailable, nperr.ErrNoHealthyBackend},
	{CodeLogCorrupt, http.StatusInternalServerError, nperr.ErrLogCorrupt},
	{CodeLogClosed, http.StatusServiceUnavailable, nperr.ErrLogClosed},
	{CodeFleetFull, http.StatusConflict, nperr.ErrFleetFull},
	{CodeBackendDown, http.StatusConflict, nperr.ErrBackendDown},
	{CodeUnknownBackend, http.StatusNotFound, nperr.ErrUnknownBackend},
	{CodeUnknownContainer, http.StatusNotFound, nperr.ErrUnknownContainer},
	{CodeBackendNotEmpty, http.StatusConflict, nperr.ErrBackendNotEmpty},
	{CodeMachineFull, http.StatusConflict, nperr.ErrMachineFull},
	{CodeMachineMismatch, http.StatusConflict, nperr.ErrMachineMismatch},
	{CodeUntrained, http.StatusConflict, nperr.ErrUntrained},
	{CodeBadObservation, http.StatusUnprocessableEntity, nperr.ErrBadObservation},
	{CodeInfeasible, http.StatusUnprocessableEntity, nperr.ErrInfeasible},
	{CodeBackendAlive, http.StatusConflict, nperr.ErrBackendAlive},
}

// CodeFor classifies an error chain into its wire code and HTTP status.
// The first table entry whose sentinel the chain wraps wins; anything
// unclassified is an internal error.
func CodeFor(err error) (ErrCode, int) {
	for _, m := range Table {
		if errors.Is(err, m.Sentinel) {
			return m.Code, m.Status
		}
	}
	return CodeInternal, http.StatusInternalServerError
}

// SentinelFor inverts CodeFor: the nperr sentinel behind a wire code, or
// nil for generic codes. The client wraps the returned sentinel so callers
// keep using errors.Is(err, nperr.ErrFleetFull) against remote errors.
func SentinelFor(code ErrCode) error {
	for _, m := range Table {
		if m.Code == code {
			return m.Sentinel
		}
	}
	return nil
}

// StatusFor returns the HTTP status a code maps to (generic codes
// included); unknown codes report 500.
func StatusFor(code ErrCode) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeInternal:
		return http.StatusInternalServerError
	}
	for _, m := range Table {
		if m.Code == code {
			return m.Status
		}
	}
	return http.StatusInternalServerError
}
