package serve

// Request-ID middleware: every request through the service — including
// ones shed at admission, rejected as oversized, or failed inside a
// handler — is tagged with an X-Request-Id that appears on the response,
// in every structured log line, and on the request's flight-recorder
// trace. Clients may supply their own ID (propagated from an upstream
// system); absent or malformed ones are replaced server-side.

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"regcache/internal/obs"
)

// RequestIDHeader is the request-correlation header the service reads
// and always sets on responses.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds an inbound ID so a hostile client cannot stuff
// kilobytes into every log line and trace of its request.
const maxRequestIDLen = 64

// sanitizeRequestID accepts an inbound ID if it is non-empty, bounded,
// and printable-ASCII without spaces; anything else returns "" (caller
// assigns a fresh one). Header injection is already impossible through
// net/http, so the filter is about keeping logs and traces greppable.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' || c == '"' {
			return ""
		}
	}
	return id
}

// ridCtxKey carries the request ID through a context (independently of
// any span: rejected requests have an ID but never get a trace).
type ridCtxKey struct{}

// RequestIDFrom returns the request ID assigned by the middleware, or ""
// outside a request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridCtxKey{}).(string)
	return id
}

// statusWriter captures the response status for the request log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// withRequestID wraps next so every request carries an ID: inbound
// X-Request-Id is honoured (after sanitizing), otherwise one is
// assigned. The response header is set before the handler runs, so
// every exit path — 2xx, 413, 429, 503, panics recovered upstream —
// returns the ID the logs and flight recorder filed the request under.
// Each request also emits one structured log line.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		r = r.WithContext(context.WithValue(r.Context(), ridCtxKey{}, id))
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		level := slog.LevelInfo
		if status >= 500 {
			level = slog.LevelError
		} else if status >= 400 {
			level = slog.LevelWarn
		}
		obs.Logger().LogAttrs(r.Context(), level, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Float64("elapsed_ms", float64(time.Since(start).Microseconds())/1e3),
			slog.String("request_id", id),
		)
	})
}
