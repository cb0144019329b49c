package main

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestFreshConnectionWaitsForFirstRequest holds a fresh connection
// unused past the 5-s header timeout the server used to set, then sends
// its first request on it: the server must still answer there, as a
// keep-alive client that pooled a spare connection expects.
func TestFreshConnectionWaitsForFirstRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the old header timeout")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
	srv := newHTTPServer("", mux, time.Minute)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		<-done
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(5*time.Second + 500*time.Millisecond)
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: celia\r\n\r\n")); err != nil {
		t.Fatalf("write on a connection idle before its first request: %v", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer on a connection idle before its first request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
}
