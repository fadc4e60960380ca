package main

import (
	"bufio"
	"crypto/tls"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"time"

	"palaemon/internal/fault"
)

// span is one timed call into a layer. IDs are per client and start at 1;
// parent 0 marks a root (a visit).
type span struct {
	name   string
	visit  int32
	id     int32
	parent int32
	start  int64 // ns since the traced window opened
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

const spanChunk = 1 << 9

// recorder keeps one client's spans in memory. A client is one goroutine
// and every call it times is synchronous on that goroutine (the HTTP
// round trip and the WAL fsync included), so the open spans form a stack
// and a new span's parent is simply the top of it. A nil recorder, or one
// that is switched off, records nothing: the untraced run pays one branch.
type recorder struct {
	client int
	on     bool
	t0     time.Time
	visit  int32
	nextID int32
	open   []*span
	chunks [][]span

	// Transport counters, filled by timingTransport.
	conns     int
	reqBytes  int64
	respBytes int64
}

func (r *recorder) begin(name string) *span {
	if r == nil || !r.on {
		return nil
	}
	if n := len(r.chunks); n == 0 || len(r.chunks[n-1]) == spanChunk {
		r.chunks = append(r.chunks, make([]span, 0, spanChunk))
	}
	last := &r.chunks[len(r.chunks)-1]
	r.nextID++
	var parent int32
	if n := len(r.open); n > 0 {
		parent = r.open[n-1].id
	}
	*last = append(*last, span{name: name, visit: r.visit, id: r.nextID, parent: parent})
	s := &(*last)[len(*last)-1]
	r.open = append(r.open, s)
	s.start = int64(time.Since(r.t0))
	return s
}

// end closes the innermost open span, which must be s.
func (r *recorder) end(s *span) {
	if s == nil {
		return
	}
	s.end = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

func (r *recorder) each(f func(span)) {
	for _, c := range r.chunks {
		for _, s := range c {
			f(s)
		}
	}
}

// selfTimes returns, per span name, each span's duration minus the time
// its direct children cover. Children of one parent never overlap here
// (one goroutine), so the subtraction is exact.
func selfTimes(spans []span) map[string][]int64 {
	children := make(map[int32]int64, len(spans))
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] += s.dur()
		}
	}
	out := make(map[string][]int64)
	for _, s := range spans {
		out[s.name] = append(out[s.name], s.dur()-children[s.id])
	}
	return out
}

// traceFileVisits bounds the trace file: every span feeds the metrics, but
// only each client's first visits are written, which keeps the file small
// enough to read (the fetch workload records over a million spans).
const traceFileVisits = 3000

func writeTrace(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range recs {
		r.each(func(s span) {
			if s.visit > traceFileVisits {
				return
			}
			fmt.Fprintf(w, `{"name":%q,"client":%d,"visit":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				s.name, r.client, s.visit, s.id, s.parent, s.start, s.end)
		})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingTransport is installed through core.ClientOptions.WrapTransport in
// the traced run. It nests a roundtrip span under the client operation
// that caused it, reading the response to its end inside the span so the
// span covers the whole exchange, and counts body bytes and new
// connections.
type timingTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := t.rec
	s := r.begin("roundtrip")
	ct := &httptrace.ClientTrace{TLSHandshakeDone: func(tls.ConnectionState, error) { r.conns++ }}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		r.end(s)
		return nil, err
	}
	if req.ContentLength > 0 {
		r.reqBytes += req.ContentLength
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, rec: r, span: s}
	return resp, nil
}

// countingBody closes the roundtrip span when the caller has drained the
// response, which core.Client does before it decodes.
type countingBody struct {
	io.ReadCloser
	rec  *recorder
	span *span
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rec.respBytes += int64(n)
	if err != nil && b.span != nil {
		b.rec.end(b.span)
		b.span = nil
	}
	return n, err
}

func (b *countingBody) Close() error {
	if b.span != nil {
		b.rec.end(b.span)
		b.span = nil
	}
	return b.ReadCloser.Close()
}

// timingFS is the filesystem the leaf rung's scratch kvdb persists through:
// the real one, with kvdb.write and kvdb.fsync spans around the WAL's
// Write and Sync so that a Put splits into seal+chain, write and fsync.
// rec is the recorder of the client whose Put is running; env.scratchMu
// orders its updates.
type timingFS struct {
	fault.FS
	rec *recorder
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{File: f, fs: t}, nil
}

type timingFile struct {
	fault.File
	fs *timingFS
}

func (f timingFile) Write(p []byte) (int, error) {
	s := f.fs.rec.begin("kvdb.write")
	n, err := f.File.Write(p)
	f.fs.rec.end(s)
	return n, err
}

func (f timingFile) Sync() error {
	s := f.fs.rec.begin("kvdb.fsync")
	err := f.File.Sync()
	f.fs.rec.end(s)
	return err
}
