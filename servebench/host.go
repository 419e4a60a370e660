package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"
)

// host serves one handler on a 127.0.0.1 listener in this process.
type host struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &host{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		if err := hs.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "serve %s: %v\n", hs.url, err)
		}
	}()
	return hs, nil
}

// close shuts the listener down and waits for its serve loop to end.
func (h *host) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		h.srv.Close()
	}
	<-h.done
}

// waitReady polls GET path until it answers 200.
func waitReady(ctx context.Context, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %v", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// heapAlloc is the live heap in bytes after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func heapMB() float64 { return float64(heapAlloc()) / 1e6 }

// allocCounter measures allocations and GC cycles over a phase.
type allocCounter struct{ mallocs, gcs uint64 }

func startAllocs() allocCounter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocCounter{m.Mallocs, uint64(m.NumGC)}
}

func (a allocCounter) since() (mallocs, gcs float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs - a.mallocs), float64(uint64(m.NumGC) - a.gcs)
}
