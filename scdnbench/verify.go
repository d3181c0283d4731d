package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"sync"
	"time"

	"scdn/internal/server"
	"scdn/internal/storage"
)

// readBufSize is the client's body read size, and so the largest chunk
// one bytes.Equal call checks.
const readBufSize = 256 << 10

var readBufPool = sync.Pool{New: func() any {
	b := make([]byte, readBufSize)
	return &b
}}

// payloadPeriod is the candidate repetition length of a seeded dataset's
// byte stream. newExpected never trusts it: it checks the whole dataset
// against the periodic window before using it, and keeps the full
// stream when the check fails.
const payloadPeriod = 4096

// expected holds what a seeded dataset's bytes must be, built once per
// dataset through server.WritePayloadRange, small enough to stay in
// cache so verification runs at memcmp speed.
type expected struct {
	size   int64
	period int64  // the stream repeats every period bytes
	win    []byte // bytes [0, min(size, period+readBufSize))
}

func newExpected(id storage.DatasetID, size int64) (*expected, error) {
	e := &expected{size: size, period: size}
	full := size <= payloadPeriod+readBufSize
	if !full {
		e.period = payloadPeriod
	}
	n := min(size, e.period+readBufSize)
	var buf bytes.Buffer
	buf.Grow(int(n))
	if _, err := server.WritePayloadRange(&buf, id, 0, n); err != nil {
		return nil, err
	}
	e.win = buf.Bytes()
	if full {
		return e, nil
	}
	// Check the whole stream against the periodic window once.
	chk := &periodChecker{e: e}
	if _, err := server.WritePayloadRange(chk, id, 0, size); err != nil || chk.bad {
		return nil, fmt.Errorf("payload of %s is not %d-periodic; cannot verify it cheaply", id, payloadPeriod)
	}
	return e, nil
}

type periodChecker struct {
	e   *expected
	off int64
	bad bool
}

func (c *periodChecker) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 && !c.bad {
		n := min(len(p), readBufSize)
		if !c.e.match(p[:n], c.off) {
			c.bad = true
		}
		p, c.off = p[n:], c.off+int64(n)
	}
	return total, nil
}

// match reports whether got equals the dataset's bytes at offset off
// (len(got) <= readBufSize).
func (e *expected) match(got []byte, off int64) bool {
	if off < 0 || off+int64(len(got)) > e.size {
		return false
	}
	i := off % e.period
	return bytes.Equal(got, e.win[i:i+int64(len(got))])
}

// checker compares a stream against its expected bytes; source abstracts
// seeded (expected) and opaque (retained upload) data.
type checker interface {
	match(got []byte, off int64) bool
}

// sourceBytes is opaque data checked against the retained upload source.
type sourceBytes []byte

func (s sourceBytes) match(got []byte, off int64) bool {
	if off < 0 || off+int64(len(got)) > int64(len(s)) {
		return false
	}
	return bytes.Equal(got, s[off:off+int64(len(got))])
}

var (
	errShortBody = errors.New("short body")
	errLongBody  = errors.New("body longer than expected")
	errCorrupt   = errors.New("corrupt byte")
)

// readVerified reads exactly n bytes from r, checking each chunk against
// c at offsets [off, off+n), then requires EOF. Verify time is added to
// t when tracing.
func readVerified(r io.Reader, c checker, off, n int64, t *reqTrace) (int64, error) {
	bp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bp)
	buf := *bp
	var got int64
	for got < n {
		want := min(int64(len(buf)), n-got)
		m, err := io.ReadFull(r, buf[:want])
		if m > 0 {
			var t0 time.Time
			if t != nil {
				t0 = time.Now()
			}
			ok := c.match(buf[:m], off+got)
			if t != nil {
				t.verify += time.Since(t0)
				t.verifyBytes += int64(m)
			}
			if !ok {
				return got, fmt.Errorf("%w in [%d, %d)", errCorrupt, off+got, off+got+int64(m))
			}
			got += int64(m)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return got, fmt.Errorf("%w: %d of %d bytes", errShortBody, got, n)
		}
		if err != nil {
			return got, err
		}
	}
	if m, _ := r.Read(buf[:1]); m > 0 {
		return got, errLongBody
	}
	return got, nil
}

// byteRange is one requested window [off, off+n).
type byteRange struct{ off, n int64 }

func (b byteRange) header() string {
	return strconv.FormatInt(b.off, 10) + "-" + strconv.FormatInt(b.off+b.n-1, 10)
}

func (b byteRange) contentRange(total int64) string {
	return "bytes " + b.header() + "/" + strconv.FormatInt(total, 10)
}

func rangeHeader(rs []byteRange) string {
	h := "bytes="
	for i, r := range rs {
		if i > 0 {
			h += ","
		}
		h += r.header()
	}
	return h
}

// checkResponse verifies a fetch response: status, Content-Length,
// Content-Range and every body byte. rs is empty for a whole-object GET
// (200), one range for a single-range GET (206), several for a multipart
// one (206 multipart/byteranges, parts in request order). total is the
// dataset size. It returns the verified payload bytes.
func checkResponse(resp *http.Response, c checker, total int64, rs []byteRange, t *reqTrace) (int64, error) {
	switch len(rs) {
	case 0:
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %s, want 200", resp.Status)
		}
		if resp.ContentLength != total {
			return 0, fmt.Errorf("Content-Length %d, want %d", resp.ContentLength, total)
		}
		return readVerified(resp.Body, c, 0, total, t)
	case 1:
		if resp.StatusCode != http.StatusPartialContent {
			return 0, fmt.Errorf("status %s, want 206", resp.Status)
		}
		if resp.ContentLength != rs[0].n {
			return 0, fmt.Errorf("Content-Length %d, want %d", resp.ContentLength, rs[0].n)
		}
		if got, want := resp.Header.Get("Content-Range"), rs[0].contentRange(total); got != want {
			return 0, fmt.Errorf("Content-Range %q, want %q", got, want)
		}
		return readVerified(resp.Body, c, rs[0].off, rs[0].n, t)
	}
	if resp.StatusCode != http.StatusPartialContent {
		return 0, fmt.Errorf("status %s, want 206", resp.Status)
	}
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/byteranges" || params["boundary"] == "" {
		return 0, fmt.Errorf("Content-Type %q, want multipart/byteranges", resp.Header.Get("Content-Type"))
	}
	body := &countingReader{r: resp.Body}
	mr := multipart.NewReader(body, params["boundary"])
	var verified int64
	for i, r := range rs {
		part, err := mr.NextPart()
		if err != nil {
			return verified, fmt.Errorf("part %d: %w", i, err)
		}
		if got, want := part.Header.Get("Content-Range"), r.contentRange(total); got != want {
			return verified, fmt.Errorf("part %d Content-Range %q, want %q", i, got, want)
		}
		n, err := readVerified(part, c, r.off, r.n, t)
		verified += n
		if err != nil {
			return verified, fmt.Errorf("part %d: %w", i, err)
		}
	}
	if _, err := mr.NextPart(); err != io.EOF {
		return verified, fmt.Errorf("multipart body has more than %d parts", len(rs))
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		return verified, err
	}
	if resp.ContentLength >= 0 && body.n != resp.ContentLength {
		return verified, fmt.Errorf("multipart body %d bytes, Content-Length %d", body.n, resp.ContentLength)
	}
	return verified, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// verifyingWriterAt receives a striped download and compares each
// positioned write against the retained upload source as it arrives.
type verifyingWriterAt struct {
	src  sourceBytes
	mu   sync.Mutex
	got  int64
	bad  bool
	verT time.Duration
}

func (w *verifyingWriterAt) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	ok := w.src.match(p, off)
	d := time.Since(t0)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.verT += d
	if !ok {
		w.bad = true
		return 0, fmt.Errorf("%w at offset %d", errCorrupt, off)
	}
	w.got += int64(len(p))
	return len(p), nil
}
