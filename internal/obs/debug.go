package obs

import (
	"net/http"
	"strconv"
)

// DefaultDebugTraces is how many traces the /debug endpoints return
// when the request carries no ?n= parameter.
const DefaultDebugTraces = 32

// queryN parses the ?n= count of a /debug query, def when absent or
// not positive.
func queryN(r *http.Request, def int) int {
	n := def
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	return n
}

// ServeRecent serves the newest flight-recorder traces as a JSON array
// (newest first), for mounting at /debug/requests. ?n= bounds the
// count (default DefaultDebugTraces).
func (t *Tracer) ServeRecent(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = WriteTraces(w, t.Recent(queryN(r, DefaultDebugTraces)))
}

// ServeSlow serves the slow-request log as a JSON array (newest
// first), for mounting at /debug/slow.
func (t *Tracer) ServeSlow(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = WriteTraces(w, t.Slow(queryN(r, DefaultDebugTraces)))
}
