package fsd

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/units"
	"arv/internal/workloads"
)

func newFixture(t *testing.T) (*host.Host, *httptest.Server) {
	t.Helper()
	h := host.New(host.Config{CPUs: 8, Memory: 16 * units.GiB, Seed: 1})
	web := h.Runtime.Create(container.Spec{
		Name: "web", CPUQuotaUS: 400_000, CPUPeriodUS: 100_000,
		MemHard: 2 * units.GiB, MemSoft: units.GiB,
	})
	web.Exec("httpd")
	batch := h.Runtime.Create(container.Spec{Name: "batch"})
	batch.Exec("worker")
	srv := httptest.NewServer(NewServer(h).Handler())
	t.Cleanup(srv.Close)
	return h, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthz(t *testing.T) {
	_, srv := newFixture(t)
	code, body := get(t, srv.URL+"/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

func TestIndex(t *testing.T) {
	_, srv := newFixture(t)
	code, body := get(t, srv.URL+"/containers")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var infos []containerInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(infos) != 2 {
		t.Fatalf("containers = %d", len(infos))
	}
	byName := map[string]containerInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	web := byName["web"]
	if web.CPUUpper != 4 {
		t.Fatalf("web upper = %d, want quota 4", web.CPUUpper)
	}
	if web.EffectiveMemory != int64(units.GiB) {
		t.Fatalf("web E_MEM = %d, want the soft limit", web.EffectiveMemory)
	}
	if web.State != "running" {
		t.Fatalf("state = %q", web.State)
	}
}

// TestIndexEmptyHost: a host with no containers lists an empty JSON
// array, not null.
func TestIndexEmptyHost(t *testing.T) {
	h := host.New(host.Config{CPUs: 8, Memory: 16 * units.GiB, Seed: 1})
	srv := httptest.NewServer(NewServer(h).Handler())
	t.Cleanup(srv.Close)
	code, body := get(t, srv.URL+"/containers")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if got := strings.TrimSpace(body); got != "[]" {
		t.Fatalf("empty host index = %q, want []", got)
	}
}

func TestContainerPseudoFiles(t *testing.T) {
	_, srv := newFixture(t)
	code, body := get(t, srv.URL+"/containers/web/sys/devices/system/cpu/online")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if body != "0-3\n" {
		t.Fatalf("online = %q, want the effective view (quota 4)", body)
	}
	code, body = get(t, srv.URL+"/containers/web/proc/meminfo")
	if code != 200 || !strings.Contains(body, "MemTotal:") {
		t.Fatalf("meminfo = %d %q", code, body)
	}
	if !strings.Contains(body, "1048576 kB") {
		t.Fatalf("meminfo should report the 1GiB effective memory: %q", body)
	}
}

func TestHostPseudoFiles(t *testing.T) {
	_, srv := newFixture(t)
	code, body := get(t, srv.URL+"/host/sys/devices/system/cpu/online")
	if code != 200 || body != "0-7\n" {
		t.Fatalf("host online = %d %q", code, body)
	}
}

func TestErrors(t *testing.T) {
	_, srv := newFixture(t)
	if code, _ := get(t, srv.URL+"/containers/nope/proc/meminfo"); code != 404 {
		t.Fatalf("unknown container: %d", code)
	}
	if code, _ := get(t, srv.URL+"/containers/web/nonexistent"); code != 404 {
		t.Fatalf("unknown file: %d", code)
	}
	if code, _ := get(t, srv.URL+"/containers/web/"); code != 400 {
		t.Fatalf("missing path: %d", code)
	}
}

func TestViewsAdaptWhileServed(t *testing.T) {
	h, srv := newFixture(t)
	read := func() string {
		_, body := get(t, srv.URL+"/containers/batch/sys/devices/system/cpu/online")
		return strings.TrimSpace(body)
	}
	before := read()

	// Load the batch container with six busy threads on the otherwise
	// idle 8-CPU host: utilization exceeds 95% of the initial E_CPU (4)
	// while slack remains, so Algorithm 1 grows the view. (A fully
	// saturating load would leave no slack and, per the published
	// algorithm, no growth.)
	ctr := h.Runtime.Containers()[1]
	workloads.NewSysbench(h, ctr, 6, 1e9).Start()
	h.Run(3 * time.Second)

	after := read()
	if before == after {
		t.Fatalf("view did not adapt: %q -> %q", before, after)
	}
	if after != "0-6" {
		t.Fatalf("six busy threads should grow the view to 7 CPUs, got %q", after)
	}
}

func TestCgroupFiles(t *testing.T) {
	_, srv := newFixture(t)
	code, body := get(t, srv.URL+"/cgroups/web/cpu.cfs_quota_us")
	if code != 200 || body != "400000\n" {
		t.Fatalf("quota file = %d %q", code, body)
	}
	code, body = get(t, srv.URL+"/cgroups/web/memory.limit_in_bytes")
	if code != 200 || !strings.HasPrefix(body, "2147483648") {
		t.Fatalf("limit file = %d %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/cgroups/nope/cpu.shares"); code != 404 {
		t.Fatalf("unknown cgroup: %d", code)
	}
	if code, _ := get(t, srv.URL+"/cgroups/web/bogus"); code != 404 {
		t.Fatalf("unknown file: %d", code)
	}
}

func TestPump(t *testing.T) {
	h, _ := newFixture(t)
	s := NewServer(h)
	stop := s.Pump(time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s.Lock()
		now := h.Now()
		s.Unlock()
		if now >= 20*time.Millisecond {
			stop()
			stop() // idempotent
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("pump did not advance virtual time")
}
