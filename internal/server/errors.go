package server

import (
	"fmt"
	"net/http"

	"github.com/example/cachedse/pkg/client"
)

// errorBody is the inner object of the uniform error envelope. Its code
// is one of pkg/client's stable ErrorCode values, the one list of them.
type errorBody struct {
	Code    client.ErrorCode `json:"code"`
	Message string           `json:"message"`
}

// errorEnvelope is the uniform v1 error shape:
//
//	{"error": {"code": "trace_not_found", "message": "..."}}
//
// Every non-2xx JSON response from the service uses this shape.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// httpError writes the uniform error envelope with the given HTTP status
// and stable code.
func httpError(w http.ResponseWriter, status int, code client.ErrorCode, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
