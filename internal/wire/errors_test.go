package wire

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/nperr"
)

// TestErrorTableBijective: every sentinel appears exactly once, every code
// maps back to its sentinel, and CodeFor/SentinelFor invert each other.
func TestErrorTableBijective(t *testing.T) {
	sentinels := []error{
		nperr.ErrInfeasible, nperr.ErrUntrained, nperr.ErrMachineMismatch,
		nperr.ErrMachineFull, nperr.ErrUnknownContainer,
		nperr.ErrBadObservation, nperr.ErrFleetFull, nperr.ErrUnknownBackend,
		nperr.ErrBackendNotEmpty, nperr.ErrBackendDown, nperr.ErrNoHealthyBackend,
		nperr.ErrLogCorrupt, nperr.ErrLogClosed, nperr.ErrBackendAlive,
	}
	if len(Table) != len(sentinels) {
		t.Fatalf("table has %d entries, want one per sentinel (%d)", len(Table), len(sentinels))
	}
	seenCode := map[ErrCode]bool{}
	seenSentinel := map[error]bool{}
	for _, m := range Table {
		if seenCode[m.Code] {
			t.Errorf("code %s appears twice", m.Code)
		}
		if seenSentinel[m.Sentinel] {
			t.Errorf("sentinel %v appears twice", m.Sentinel)
		}
		seenCode[m.Code] = true
		seenSentinel[m.Sentinel] = true
	}
	for _, s := range sentinels {
		if !seenSentinel[s] {
			t.Errorf("sentinel %v missing from table", s)
		}
		code, status := CodeFor(fmt.Errorf("wrapped: %w", s))
		if code == CodeInternal {
			t.Errorf("sentinel %v unclassified", s)
		}
		back := SentinelFor(code)
		if !errors.Is(back, s) {
			t.Errorf("SentinelFor(CodeFor(%v)) = %v, not the original", s, back)
		}
		if got := StatusFor(code); got != status {
			t.Errorf("StatusFor(%s) = %d, CodeFor said %d", code, got, status)
		}
	}
}

// TestCodeForPriority: fleet rejections are joined chains; the
// most-actionable sentinel must win classification.
func TestCodeForPriority(t *testing.T) {
	cases := []struct {
		name string
		err  error
		code ErrCode
		stat int
	}{
		{
			// Place on an all-dead fleet joins both; only 503 tells the
			// client to back off and retry.
			"no_healthy_backend beats fleet_full",
			fmt.Errorf("rejected: %w", errors.Join(nperr.ErrFleetFull, nperr.ErrNoHealthyBackend)),
			CodeNoHealthyBackend, http.StatusServiceUnavailable,
		},
		{
			// A full-fleet rejection aggregates per-member reasons; the
			// aggregate code must win over any single member's.
			"fleet_full beats member errors",
			fmt.Errorf("rejected: %w", errors.Join(nperr.ErrMachineFull, nperr.ErrUntrained, nperr.ErrFleetFull)),
			CodeFleetFull, http.StatusConflict,
		},
		{
			"failover stranding is retryable",
			fmt.Errorf("stranded: %w", nperr.ErrNoHealthyBackend),
			CodeNoHealthyBackend, http.StatusServiceUnavailable,
		},
		{
			"unclassified is internal",
			errors.New("disk on fire"),
			CodeInternal, http.StatusInternalServerError,
		},
	}
	for _, tc := range cases {
		code, stat := CodeFor(tc.err)
		if code != tc.code || stat != tc.stat {
			t.Errorf("%s: CodeFor = %s/%d, want %s/%d", tc.name, code, stat, tc.code, tc.stat)
		}
	}
}

// TestStatusChoices pins the status classes the protocol promises: 503
// for no_healthy_backend and log_closed (back off and retry), 404 for
// unknown names, 409 for state/capacity conflicts, 422 for semantically
// invalid requests, and 500 only for log_corrupt — damaged durable state
// is the daemon's problem, not the request's.
func TestStatusChoices(t *testing.T) {
	for _, m := range Table {
		switch m.Code {
		case CodeNoHealthyBackend, CodeLogClosed:
			if m.Status != http.StatusServiceUnavailable {
				t.Errorf("%s: status %d, want 503", m.Code, m.Status)
			}
		case CodeLogCorrupt:
			if m.Status != http.StatusInternalServerError {
				t.Errorf("%s: status %d, want 500", m.Code, m.Status)
			}
		case CodeUnknownBackend, CodeUnknownContainer:
			if m.Status != http.StatusNotFound {
				t.Errorf("%s: status %d, want 404", m.Code, m.Status)
			}
		case CodeBadObservation, CodeInfeasible:
			if m.Status != http.StatusUnprocessableEntity {
				t.Errorf("%s: status %d, want 422", m.Code, m.Status)
			}
		default:
			if m.Status != http.StatusConflict {
				t.Errorf("%s: status %d, want 409", m.Code, m.Status)
			}
		}
		if m.Status >= 500 && m.Code != CodeNoHealthyBackend &&
			m.Code != CodeLogCorrupt && m.Code != CodeLogClosed {
			t.Errorf("%s: 5xx would make the client retry a rejection", m.Code)
		}
	}
}
