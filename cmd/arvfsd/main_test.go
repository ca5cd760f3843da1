package main

import (
	"net"
	"net/http"
	"strings"
	"testing"
)

// The daemon's server bounds how long a client may take to send a
// request and rejects a request whose headers exceed maxHeaderBytes.
func TestHTTPServerLimits(t *testing.T) {
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 {
		t.Fatalf("read timeouts unset: header %v, request %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) // returns once Close runs
	defer srv.Close()

	req, err := http.NewRequest("GET", "http://"+ln.Addr().String()+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Big", strings.Repeat("x", 2*maxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized headers: status %d, want %d", resp.StatusCode, http.StatusRequestHeaderFieldsTooLarge)
	}
}
