package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scdn/internal/server"
)

// connStats counts the client's TCP connections: open ones, and ones
// carrying a request (from sending it until its body is closed).
type connStats struct {
	mu       sync.Mutex
	open     int
	maxOpen  int
	inUse    int
	maxInUse int
}

func (s *connStats) use(d int) {
	s.mu.Lock()
	s.inUse += d
	s.maxInUse = max(s.maxInUse, s.inUse)
	s.mu.Unlock()
}

// countingTransport tracks how many connections carry a request at once.
type countingTransport struct {
	rt http.RoundTripper
	s  *connStats
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.s.use(1)
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		c.s.use(-1)
		return nil, err
	}
	resp.Body = &releasingBody{ReadCloser: resp.Body, s: c.s}
	return resp, nil
}

type releasingBody struct {
	io.ReadCloser
	s    *connStats
	once sync.Once
}

func (b *releasingBody) Close() error {
	b.once.Do(func() { b.s.use(-1) })
	return b.ReadCloser.Close()
}

type trackedConn struct {
	net.Conn
	s    *connStats
	once sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() {
		c.s.mu.Lock()
		c.s.open--
		c.s.mu.Unlock()
	})
	return c.Conn.Close()
}

// env is one running cluster plus the benchmark's client for it.
type env struct {
	lc     *server.LocalCluster
	urls   []string
	tokens []string // one session per edge
	client *http.Client
	tr     *http.Transport
	conns  *connStats
	dir    string // replica volumes, removed on close
}

// newEnv starts the cluster (dir store under dir) and opens one session
// per edge over HTTP, as a remote user would. slots bounds the client's
// connections per edge.
func newEnv(cfg server.ClusterConfig, dir string, slots int) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg.StoreMode = server.StoreModeDir
	cfg.StoreDir = dir
	lc, err := server.StartLocalCluster(cfg)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	cs := &connStats{}
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			cs.mu.Lock()
			cs.open++
			cs.maxOpen = max(cs.maxOpen, cs.open)
			cs.mu.Unlock()
			return &trackedConn{Conn: c, s: cs}, nil
		},
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: slots,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
		WriteBufferSize:     64 << 10,
		ReadBufferSize:      64 << 10,
	}
	e := &env{lc: lc, urls: lc.URLs(), client: &http.Client{Transport: countingTransport{tr, cs}},
		tr: tr, conns: cs, dir: dir}
	for i, base := range e.urls {
		tok, err := login(e.client, base, int64(lc.UserIDs[i%len(lc.UserIDs)]))
		if err != nil {
			e.close()
			return nil, fmt.Errorf("login on %s: %w", base, err)
		}
		e.tokens = append(e.tokens, tok)
	}
	return e, nil
}

func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.lc.Shutdown(ctx)
	e.tr.CloseIdleConnections()
	_ = os.RemoveAll(e.dir)
}

func login(client *http.Client, base string, user int64) (string, error) {
	body, _ := json.Marshal(server.LoginRequest{User: user})
	resp, err := client.Post(base+"/v1/login", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("login status %s", resp.Status)
	}
	var lr server.LoginResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return "", err
	}
	return lr.Token, nil
}

// get issues one authenticated GET on edge i and hands the response to
// check, which must consume the body. t, when non-nil, records the
// transport timestamps.
func (e *env) get(ctx context.Context, i int, path, rangeHdr string, t *reqTrace,
	check func(*http.Response) (int64, error)) (int64, error) {
	if t != nil {
		ctx = httptrace.WithClientTrace(ctx, t.clientTrace())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.urls[i]+path, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+e.tokens[i])
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := check(resp)
	if t != nil {
		t.bodyEnd = time.Now()
	}
	return n, err
}

// storeDir is a fresh replica-volume root under the build directory.
func storeDir(buildDir, name string) string {
	return filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), time.Now().UnixNano()))
}
