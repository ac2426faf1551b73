package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// Health is what /healthz reports. Status is one of "ok", "degraded"
// (serving, but shedding load or missing deadlines recently) or
// "draining" (shutdown in progress; returned with a 503 so load
// balancers stop routing). Reason explains a non-ok status.
type Health struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// Handler returns the live-telemetry HTTP surface for a provider:
//
//	/metrics       Prometheus text exposition of the current snapshot
//	/metrics.json  the versioned JSON snapshot (same bytes as -metrics)
//	/healthz       the health callback's verdict (503 when draining)
//	/debug/pprof/  the standard Go profiling endpoints
//
// health may be nil, in which case /healthz always reports ok. The
// provider may be nil: the metrics endpoints then serve an empty
// snapshot, so the surface stays scrapeable regardless of flags.
func Handler(p *Provider, health func() Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(EncodeProm(p.Snapshot()))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		data, err := EncodeMetrics(p.Snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n'))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := Health{Status: "ok"}
		if health != nil {
			h = health()
		}
		w.Header().Set("Content-Type", "application/json")
		if h.Status == "draining" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc, _ := json.Marshal(h)
		w.Write(append(enc, '\n'))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ListenAndServe binds addr (e.g. "localhost:6060", or ":0" for an
// ephemeral port), serves the Handler surface on it in a background
// goroutine, and returns the bound address plus a close function that
// stops the listener. It backs the -pprof flag on the one-shot CLIs;
// the daemon mounts the same Handler under its own lifecycle
// (serve.Server.ListenHTTP) so shutdown drains cleanly.
func ListenAndServe(addr string, p *Provider, health func() Health) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(p, health)}
	go func() {
		// Serve returns ErrServerClosed (or a listener error) once closed;
		// there is nowhere useful to report it.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), srv.Close, nil
}
