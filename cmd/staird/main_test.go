package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stair/internal/cluster"
	"stair/internal/core"
	"stair/internal/store"
)

// testVolume builds an in-process cluster volume over local devices.
func testVolume(t *testing.T) *cluster.Volume {
	t.Helper()
	code, err := core.New(core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var servers []cluster.Server
	for i := 0; i < 6; i++ {
		servers = append(servers, cluster.Server{Name: fmt.Sprintf("s%d", i), URL: "local://"})
	}
	v, err := cluster.Open(context.Background(), cluster.Config{
		Fleet:      &cluster.Fleet{Servers: servers},
		Code:       code,
		SectorSize: 64,
		Stripes:    4,
		Dial: func(ctx context.Context, server cluster.Server) (store.Device, error) {
			return store.NewMemDevice(4*code.R(), 64), nil
		},
		Monitor: cluster.MonitorConfig{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

// TestFleet: fleet writes the golden six-plus-one fleet file byte for
// byte, serve's parser reads it back as 6 actives and 1 spare on
// consecutive ports, and a fleet with no actives or negative spares is
// refused.
func TestFleet(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fleet.json")
	if err := cmdFleet([]string{"-n", "6", "-spares", "1", "-base-port", "9000", "-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../internal/cluster/testdata/fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet wrote\n%s\nwant\n%s", got, want)
	}
	fleet, err := cluster.ParseFleet(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Actives()) != 6 || len(fleet.Spares()) != 1 || !fleet.Servers[6].Spare {
		t.Fatalf("fleet %+v: want 6 actives then 1 spare", fleet.Servers)
	}
	for i, s := range fleet.Servers {
		if want := fmt.Sprintf("http://127.0.0.1:%d", 9000+i); s.URL != want {
			t.Errorf("server %d at %s, want %s", i, s.URL, want)
		}
	}
	for _, args := range [][]string{{"-n", "0"}, {"-spares", "-1"}} {
		if err := cmdFleet(append(args, "-out", out)); err == nil {
			t.Errorf("fleet %v accepted", args)
		}
	}
}

func TestAPIBlockRoundTrip(t *testing.T) {
	v := testVolume(t)
	srv := httptest.NewServer(newAPI(v))
	t.Cleanup(srv.Close)

	block := bytes.Repeat([]byte{0xAB}, v.BlockSize())
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/blocks/3", bytes.NewReader(block))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT block: status %d", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/blocks/3")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block) {
		t.Fatal("GET returned different bytes than PUT stored")
	}

	// Out-of-range and wrong-size requests are client errors.
	resp, err = srv.Client().Get(srv.URL + "/v1/blocks/999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range GET: status %d, want 400", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/v1/blocks/0", bytes.NewReader([]byte("short")))
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short PUT: status %d, want 400", resp.StatusCode)
	}
}

func TestAPIMaintenanceAndMetrics(t *testing.T) {
	v := testVolume(t)
	srv := httptest.NewServer(newAPI(v))
	t.Cleanup(srv.Close)

	block := bytes.Repeat([]byte{7}, v.BlockSize())
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/blocks/0", bytes.NewReader(block))
	if resp, err := srv.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	for _, ep := range []string{"/v1/flush", "/v1/sync", "/v1/scrub"} {
		resp, err := srv.Client().Post(srv.URL+ep, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", ep, resp.StatusCode)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status statusReport
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if status.Blocks != v.Blocks() || len(status.Health) != 6 || len(status.Placement) != 6 {
		t.Fatalf("status %+v", status)
	}
	for _, h := range status.Health {
		if !h.Alive {
			t.Fatalf("healthy column reported dead: %+v", h)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics metricsReport
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		err = json.Unmarshal(body, &metrics)
	}
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Store.Writes == 0 {
		t.Fatalf("metrics report zero writes after a PUT: %+v", metrics.Store)
	}
	// The one-block PUT was flushed through the sub-stripe path, on its
	// delta load: the fallback counter is exported, and reads zero on a
	// healthy volume — as does its degraded-read sibling.
	if metrics.Store.SubStripeFlushes == 0 || !bytes.Contains(body, []byte(`"SubStripeFallbacks":0`)) {
		t.Fatalf("metrics want ≥1 sub-stripe flush and an exported zero SubStripeFallbacks: %s", body)
	}
	if !bytes.Contains(body, []byte(`"DegradedReadFallbacks":0`)) {
		t.Fatalf("metrics want an exported zero DegradedReadFallbacks: %s", body)
	}
	// The latency map carries a row per op class exercised above: one
	// PUT (write), plus flush and scrub; /v1/sync is not timed. A GET
	// below must surface in a fresh snapshot — the rows accumulate.
	for _, class := range []string{"write", "flush", "scrub"} {
		row, ok := metrics.Latency[class]
		if !ok || row.Count == 0 {
			t.Fatalf("metrics latency row %q missing or empty: %+v", class, metrics.Latency)
		}
		if row.P50us <= 0 || row.P99us < row.P50us || row.P999us < row.P99us {
			t.Fatalf("latency row %q not ordered: %+v", class, row)
		}
	}
	if _, ok := metrics.Latency["read"]; ok {
		t.Fatal("read latency row present before any GET")
	}
	if resp, err := srv.Client().Get(srv.URL + "/v1/blocks/0"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err = srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if row := metrics.Latency["read"]; row.Count != 1 {
		t.Fatalf("read latency row after one GET: %+v", row)
	}
}

// A device server's graceful stop drops its frame connections too, as a
// process exit would: a NetDevice dialled before the stop can no longer
// read through it.
func TestServeShutdownClosesFrameConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, store.NewDeviceServer(store.NewMemDevice(8, 64))) }()
	d, err := store.DialNetDevice(context.Background(), "http://"+ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := [][]byte{make([]byte, 64)}
	if err := d.ReadSectors(context.Background(), 0, buf); err != nil {
		t.Fatalf("framed read while serving: %v", err)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := d.ReadSectors(context.Background(), 0, buf); err == nil {
		t.Fatal("framed read succeeded after the server shut down")
	}
}
