package main

// The in-process regsimd stack as cmd/regsimd deploys it with -store:
// serve.New over sim.NewRunnerWith(NumCPU, wc) with a durable result
// store and default admission limits, reached over loopback HTTP by a
// client holding a single keep-alive connection.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"regcache/internal/serve"
	"regcache/internal/sim"
	"regcache/internal/store"
)

// daemon is one generation of the service: a runner (and so a memo) and
// the server in front of it.
type daemon struct {
	runner  *sim.Runner
	srv     *serve.Server
	handler http.Handler
}

// newDaemon builds a generation over an open store. With a tracer, the
// runner and the handler are wrapped in its span recorders.
func newDaemon(wc *sim.WorkloadCache, rs *sim.ResultStore, tr *tracer) (*daemon, error) {
	r := sim.NewRunnerWith(runtime.NumCPU(), wc)
	if err := r.UseStore(rs); err != nil {
		return nil, fmt.Errorf("attach store: %w", err)
	}
	var be serve.Backend = r
	if tr != nil {
		be = tr.backend(r)
	}
	end := tr.setupSpan("serve.New")
	srv := serve.New(serve.Config{Backend: be, Store: rs})
	end()
	h := srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	return &daemon{runner: r, srv: srv, handler: h}, nil
}

// drain stops the generation the way SIGTERM does: in-flight requests
// finish, then the runner closes and flushes its pending store appends.
func (d *daemon) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return d.srv.Drain(ctx)
}

// openStore opens (creating if needed) a result store directory.
func openStore(dir string, tr *tracer) (*sim.ResultStore, error) {
	end := tr.setupSpan("sim.OpenResultStore")
	rs, err := sim.OpenResultStore(dir, store.Options{})
	end()
	if err != nil {
		return nil, fmt.Errorf("open store %s: %w", dir, err)
	}
	return rs, nil
}

// transport is the loopback HTTP hop: one listener whose handler is the
// current daemon generation's, and one client limited to one connection.
type transport struct {
	hs     *http.Server
	served chan error
	cur    atomic.Pointer[http.Handler]
	client *http.Client
	base   string
}

func newTransport() (*transport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &transport{served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	t.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*t.cur.Load()).ServeHTTP(w, r)
	})}
	t.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// use routes requests to d from now on.
func (t *transport) use(d *daemon) { t.cur.Store(&d.handler) }

func (t *transport) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t.client.CloseIdleConnections()
	err := t.hs.Shutdown(ctx)
	if serr := <-t.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// exchange sends one HTTP request tagged with id and reads the whole
// reply into buf. A non-2xx status is an error.
func (t *transport) exchange(method, path, id string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set(serve.RequestIDHeader, id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return resp.StatusCode, nil
}
