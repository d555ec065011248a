package cubeserver

import (
	"errors"

	"repro/internal/datacube"
)

// The wire protocol carries failures as strings, which is fine for a
// human at cubecli but useless to a failover coordinator that must
// tell "cube does not exist" (logical, replica healthy) from "engine
// closed" (replica dead) from a desynced transport. Response.ErrCode
// closes the gap: dispatch classifies known sentinels into stable
// codes and the client rebuilds an error that both preserves the
// server's message and unwraps to the original sentinel, so errors.Is
// works across the wire.

// Wire error codes carried in Response.ErrCode.
const (
	// CodeNotFound marks datacube.ErrNotFound: the named cube does not
	// exist on the server.
	CodeNotFound = "not_found"
	// CodeEngineClosed marks datacube.ErrEngineClosed: the backing
	// engine was shut down.
	CodeEngineClosed = "engine_closed"
	// CodeUnknownOp marks ErrUnknownOp: the request named an operation
	// the dispatcher does not implement.
	CodeUnknownOp = "unknown_op"
)

// ErrUnknownOp is returned for requests (or pipeline steps) naming an
// operation the server does not implement.
var ErrUnknownOp = errors.New("cubeserver: unknown op")

// ErrClientBroken is returned by every call on a Client after a
// transport failure. A failed frame write or read leaves the stream
// desynced — a later call could wait on a reply that never comes or
// decode a stale frame as its own — so the client latches the first
// transport error and fails everything afterwards fast; callers must
// reconnect.
var ErrClientBroken = errors.New("cubeserver: client unusable after transport error (reconnect)")

// ErrCodeOf classifies an error into a wire code ("" when the error
// carries no classified sentinel). Shared by the engine dispatcher and
// any other Dispatcher (e.g. the cubecluster coordinator) serving the
// same protocol.
func ErrCodeOf(err error) string {
	switch {
	case errors.Is(err, datacube.ErrNotFound):
		return CodeNotFound
	case errors.Is(err, datacube.ErrEngineClosed):
		return CodeEngineClosed
	case errors.Is(err, ErrUnknownOp):
		return CodeUnknownOp
	}
	return ""
}

// sentinelOf maps a wire code back to its sentinel (nil for unknown
// codes, which newer servers may emit).
func sentinelOf(code string) error {
	switch code {
	case CodeNotFound:
		return datacube.ErrNotFound
	case CodeEngineClosed:
		return datacube.ErrEngineClosed
	case CodeUnknownOp:
		return ErrUnknownOp
	}
	return nil
}

// RemoteError is the client-side reconstruction of a server-side
// failure: Error() preserves the server's message verbatim and Unwrap
// restores the sentinel named by the wire code, so
// errors.Is(err, datacube.ErrNotFound) holds across the wire exactly
// as it does in-process.
type RemoteError struct {
	Code string
	Msg  string
}

func (e *RemoteError) Error() string { return e.Msg }

// Unwrap returns the sentinel for the error's wire code, if any.
func (e *RemoteError) Unwrap() error { return sentinelOf(e.Code) }

// ResponseError converts a response's error fields back into an error:
// nil for success, a RemoteError when the server classified the
// failure, and an opaque error otherwise.
func ResponseError(resp *Response) error {
	if resp.Err == "" {
		return nil
	}
	if resp.ErrCode == "" {
		return errors.New(resp.Err)
	}
	return &RemoteError{Code: resp.ErrCode, Msg: resp.Err}
}
