package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pbppm/internal/obs"
	"pbppm/internal/server"
)

// freeAddr claims a loopback port and releases it, so run can bind it.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunRoutesClientsToOneBackend boots the router over two backend
// servers that trust loopback: every client's session must land on
// exactly one backend and both backends must get clients, the admin
// exposition must lint clean and count requests per shard, and
// cancelling the context must make run return nil. Which backend owns
// which client is the ring's business, checked in internal/cluster.
func TestRunRoutesClientsToOneBackend(t *testing.T) {
	store := server.MapStore{"/home": server.Document{URL: "/home", Body: make([]byte, 100)}}
	srvs := make([]*server.Server, 2)
	backends := make([]string, len(srvs))
	for i := range srvs {
		srvs[i] = server.New(store, server.Config{TrustedPeers: []string{"127.0.0.1", "::1"}})
		ts := httptest.NewServer(srvs[i])
		defer ts.Close()
		backends[i] = ts.URL
	}
	addr, adminAddr := freeAddr(t), freeAddr(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, addr, adminAddr, strings.Join(backends, ","), 0, "",
			obs.NewLogger(io.Discard, slog.LevelInfo))
	}()

	get := func(url, client string) (string, error) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if client != "" {
			req.Header.Set(server.HeaderClientID, client)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %s", resp.Status)
		}
		return string(body), err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := get("http://"+adminAddr+"/healthz", ""); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router admin listener never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}

	clients := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	for _, c := range clients {
		if _, err := get("http://"+addr+"/home", c); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}

	landed := map[string]int{}
	for i, srv := range srvs {
		for _, os := range srv.OpenSessions() {
			if prev, dup := landed[os.Client]; dup {
				t.Errorf("%s has sessions on backends %d and %d", os.Client, prev, i)
			}
			landed[os.Client] = i
		}
	}
	used := map[int]bool{}
	for _, c := range clients {
		i, ok := landed[c]
		if !ok {
			t.Errorf("%s has no session on any backend", c)
			continue
		}
		used[i] = true
	}
	if len(used) != len(srvs) {
		t.Fatalf("clients landed on %d of %d backends; the routing check needs both", len(used), len(srvs))
	}

	metrics, err := get("http://"+adminAddr+"/metrics", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(metrics); err != nil {
		t.Errorf("router exposition invalid: %v", err)
	}
	for _, want := range []string{`pbppm_shard_requests_total{shard="0"}`, `pbppm_shard_requests_total{shard="1"}`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("router exposition missing %s", want)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
