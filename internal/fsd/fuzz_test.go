package fsd

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/units"
)

// FuzzRoutes sends arbitrary request paths to the fsd handler and
// requires a well-formed client-facing answer: 200, 301, 400, 404 or
// 405, never a 5xx and never a panic. Paths the HTTP server itself
// would reject before routing (not a valid request URI) are skipped.
func FuzzRoutes(f *testing.F) {
	for _, seed := range []string{
		"/containers",
		"/containers/web/proc/meminfo",
		"/containers/web/",
		"/containers/web/..",
		"/containers/web/../../host/proc/cpuinfo",
		"/containers/%2e%2e/proc/meminfo",
		"/containers/web%2Fproc/meminfo",
		"/containers//proc/meminfo",
		"//containers",
		"/host/proc/stat",
		"/host/",
		"/cgroups/web/cpu.shares",
		"/cgroups/../web/cpu.shares",
		"/cgroups/web/%2e%2e",
		"/healthz",
		"/" + strings.Repeat("a", 4096),
	} {
		f.Add(seed)
	}
	h := host.New(host.Config{CPUs: 8, Memory: 16 * units.GiB, Seed: 1})
	web := h.Runtime.Create(container.Spec{
		Name: "web", CPUQuotaUS: 400_000, CPUPeriodUS: 100_000,
		MemHard: 2 * units.GiB, MemSoft: units.GiB,
	})
	web.Exec("httpd")
	h.Run(50 * time.Millisecond) // the views hold non-trivial state
	handler := NewServer(h).Handler()

	f.Fuzz(func(t *testing.T, path string) {
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		u, err := url.ParseRequestURI(path)
		if err != nil {
			return
		}
		req := &http.Request{
			Method:     http.MethodGet,
			URL:        u,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{},
			Host:       "arv",
			RequestURI: path,
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusMovedPermanently, http.StatusBadRequest,
			http.StatusNotFound, http.StatusMethodNotAllowed:
		default:
			t.Fatalf("GET %q: status %d, body %q", path, rec.Code, rec.Body.String())
		}
	})
}
