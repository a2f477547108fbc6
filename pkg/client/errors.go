package client

import (
	"errors"
	"fmt"
	"time"
)

// ErrorCode is a stable machine-readable error code of the v1 error
// envelope, and the one list of them: the server writes these values and
// clients match them. Clients branch on the code, never the message:
// messages may change between releases, codes are part of the API
// contract. An ErrorCode is an error, so the codes below double as
// errors.Is targets:
//
//	_, err := c.GetTrace(ctx, digest)
//	if errors.Is(err, client.ErrTraceNotFound) { ... }
type ErrorCode string

func (c ErrorCode) Error() string { return "cachedse: " + string(c) }

// The stable codes, one per failure class of the server's error envelope.
const (
	ErrBadRequest        ErrorCode = "bad_request"
	ErrPayloadTooLarge   ErrorCode = "payload_too_large"
	ErrTraceNotFound     ErrorCode = "trace_not_found"
	ErrJobNotFound       ErrorCode = "job_not_found"
	ErrTraceBusy         ErrorCode = "trace_busy"
	ErrQueueFull         ErrorCode = "queue_full"
	ErrOverloaded        ErrorCode = "overloaded"
	ErrInvalidSampleRate ErrorCode = "invalid_sample_rate"
	ErrInvalidSpace      ErrorCode = "invalid_space"
	ErrInvalidPolicy     ErrorCode = "invalid_policy"
	ErrDeadlineExceeded  ErrorCode = "deadline_exceeded"
	ErrCanceled          ErrorCode = "canceled"
	ErrUnavailable       ErrorCode = "unavailable"
	ErrInternal          ErrorCode = "internal"
)

// APIError is a non-2xx response from the service, carrying the HTTP
// status and the envelope's stable code and human-readable message.
type APIError struct {
	StatusCode int
	Code       string
	Message    string

	// retryAfter is the server's Retry-After hint, consumed by the retry
	// loop when scheduling the next attempt.
	retryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("cachedse: HTTP %d: %s", e.StatusCode, e.Message)
	}
	return fmt.Sprintf("cachedse: %s (HTTP %d): %s", e.Code, e.StatusCode, e.Message)
}

// Is matches an APIError against the package's error codes, so
// errors.Is(err, client.ErrQueueFull) works through wrapping.
func (e *APIError) Is(target error) bool {
	c, ok := target.(ErrorCode)
	return ok && e.Code == string(c)
}

// RetryExhaustedError wraps the last error after all retry attempts.
type RetryExhaustedError struct {
	Attempts int
	Last     error
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("cachedse: giving up after %d attempts: %v", e.Attempts, e.Last)
}

func (e *RetryExhaustedError) Unwrap() error { return e.Last }

// retryable reports whether an error is worth another attempt: transport
// failures, truncated bodies, and the server's explicit back-pressure
// signals (429 queue_full / overloaded, 500, 503). Client mistakes (4xx)
// and deadline expiries (504 — retrying cannot beat a passed deadline)
// are terminal.
func retryable(err error) bool {
	var api *APIError
	if errors.As(err, &api) {
		switch api.StatusCode {
		case 429, 500, 502, 503:
			return true
		}
		return false
	}
	// Anything that is not an API error is a transport-level failure
	// (connection refused/reset, unexpected EOF mid-body, bad JSON from a
	// cut stream) — the request may well succeed on a healthy retry.
	return true
}
