package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"
)

// HTTP endpoint for long-running processes: a Prometheus scrape
// surface, snapshot dumps, liveness and build identity, plus the
// standard pprof handlers, so a heavy run can be watched, scraped and
// profiled without stopping it.

// Handler returns an http.Handler serving the registry:
//
//	/metrics        Prometheus text exposition (counters, gauges,
//	                bucket histograms)
//	/metrics.json   JSON snapshot (adds series and spans)
//	/metrics.csv    the same snapshot as flat CSV
//	/trace          finished spans as an indented text tree
//	/trace.json     finished spans as Chrome trace-event JSON
//	/healthz        liveness probe, always "ok"
//	/buildinfo      go version, module, VCS revision, GOMAXPROCS
//	/debug/pprof/*  net/http/pprof profiling endpoints
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.csv", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		if err := r.WriteCSV(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := r.WriteSpanTree(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteChromeTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		info := buildInfo()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(info)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// BuildInfo is the /buildinfo response: what binary is this, built
// from which revision, running on what.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	ModulePath  string `json:"module_path,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

// buildInfo collects the binary's identity from runtime/debug.
func buildInfo() BuildInfo {
	info := BuildInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.ModulePath = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.VCSRevision = s.Value
			case "vcs.time":
				info.VCSTime = s.Value
			case "vcs.modified":
				info.VCSModified = s.Value == "true"
			}
		}
	}
	return info
}

// Serve listens on addr and serves the registry's Handler in a
// background goroutine. It returns the bound address (useful with
// ":0") and a shutdown func. Serving implies Enable().
func (r *Registry) Serve(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	Enable()
	srv := &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// Serve starts the default registry's HTTP endpoint.
func Serve(addr string) (string, func(), error) { return std.Serve(addr) }
