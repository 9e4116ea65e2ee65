package namespace

import "errors"

// Sentinel errors for metadata operations. They cross the (simulated) RPC
// boundary as strings and are mapped back with FromWire so errors.Is works
// end-to-end.
var (
	ErrNotFound     = errors.New("namespace: no such file or directory")
	ErrExists       = errors.New("namespace: file or directory exists")
	ErrNotDir       = errors.New("namespace: not a directory")
	ErrIsDir        = errors.New("namespace: is a directory")
	ErrPermission   = errors.New("namespace: permission denied")
	ErrSubtreeBusy  = errors.New("namespace: subtree operation in progress")
	ErrMvIntoSelf   = errors.New("namespace: cannot move a directory into itself")
	ErrUnavailable  = errors.New("namespace: service unavailable")
	ErrTimeout      = errors.New("namespace: request timed out")
	ErrConnLost     = errors.New("namespace: connection lost")
	ErrInvalidState = errors.New("namespace: invalid internal state")
	// ErrThrottled is returned when per-tenant admission control rejects
	// a request (token bucket empty or in-flight cap reached) before it
	// touches the store. Clients back off rather than retry immediately.
	ErrThrottled = errors.New("namespace: tenant throttled")
	// ErrStale answers a raced write (Request.Raced) whose client's result
	// row already holds a later Seq: the client has moved on, and nothing
	// ran. It is a transport-class failure, seen only by a late twin.
	ErrStale = errors.New("namespace: stale raced write")
	// ErrRaceDeclined answers a raced delete or mv whose target is a
	// directory: the recursive subtree protocol never runs under a raced
	// Seq, so the client re-issues the operation under a fresh one, neither
	// raced nor replaced.
	ErrRaceDeclined = errors.New("namespace: raced subtree operation declined")
)

var wireErrors = []error{
	ErrNotFound, ErrExists, ErrNotDir, ErrIsDir, ErrPermission,
	ErrSubtreeBusy, ErrMvIntoSelf, ErrUnavailable, ErrTimeout,
	ErrConnLost, ErrInvalidState, ErrInvalidPath, ErrThrottled,
	ErrStale, ErrRaceDeclined,
}

// IsOutcome reports whether err, a write's failure, is the write's outcome:
// it found the namespace so and changed nothing, and running it again on
// that namespace answers the same. A raced write records such a failure in
// its result row. Any other failure (a lock timeout, a failed INV round, a
// lost connection, a throttled or stale request) leaves the outcome unknown
// to the client.
func IsOutcome(err error) bool {
	for _, o := range outcomeErrors {
		if errors.Is(err, o) {
			return true
		}
	}
	return false
}

var outcomeErrors = []error{
	ErrNotFound, ErrExists, ErrNotDir, ErrIsDir, ErrPermission,
	ErrSubtreeBusy, ErrMvIntoSelf, ErrInvalidPath, ErrRaceDeclined,
}

// ToWire converts an error into its wire string ("" for nil).
func ToWire(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FromWire converts a wire string back into an error, preferring the
// package sentinels so errors.Is holds across the RPC boundary.
func FromWire(s string) error {
	if s == "" {
		return nil
	}
	for _, e := range wireErrors {
		if e.Error() == s {
			return e
		}
	}
	return errors.New(s)
}
