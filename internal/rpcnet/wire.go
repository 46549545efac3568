// wire.go is the protocol: the frame codec, the typed error table, the
// server's exchanges and the client's side of them. The package comment
// documents the format and the op table.

package rpcnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/traffic"
)

// MaxChunk is the size of the server's pooled payload buffer: a
// download is framed in pieces of at most this size.
const MaxChunk = 4 << 20

const (
	opWrite  = 1 // request: create (flagAppend: append to) path from Length payload bytes
	opRead   = 2 // request: stream up to Length bytes at Offset of path's snapshot Version
	opData   = 3 // reply: Length payload bytes follow
	opStatus = 4 // reply: the outcome in Code; PathLen bytes of message, Length of reply value follow

	// The control calls; the package comment's table has what each reads.
	opStat, opList, opMkdir, opDelete, opRename, opVersions    = 5, 6, 7, 8, 9, 10
	opShards, opProviders, opTenants, opJoin, opLeave, opDrain = 11, 12, 13, 14, 15, 16

	flagAppend = 1

	maxPath   = 4096 // bounds a request's path and a status frame's message
	maxTenant = 256
)

// header is the fixed 32 bytes every frame starts with, little-endian
// in field order.
type header struct {
	Op, Flags       uint8
	Code            uint16
	PathLen, TenLen uint16
	Version         uint64
	Offset, Length  int64
}

// wireErrors maps a status frame's Code (from 2 up; 0 is success and
// codeOther any unlisted error) to the sentinel the client's error
// matches under errors.Is.
var wireErrors = [...]error{
	2:  fsapi.ErrNotFound,
	3:  fsapi.ErrExists,
	4:  fsapi.ErrIsDir,
	5:  fsapi.ErrNotDir,
	6:  fsapi.ErrBadPath,
	7:  fsapi.ErrNotSupported,
	8:  core.ErrNoSuchVersion,
	9:  core.ErrAborted,
	10: core.ErrAllReplicasDown,
	11: core.ErrCanceled,
	12: core.ErrOverloaded, // Offset carries the retry-after hint in nanoseconds
	13: fsapi.ErrNotEmpty,
}

const codeOther = 1

// wireError is a server-side error rebuilt on the client: the server's
// message, unwrapping to what its code names (nil for codeOther).
type wireError struct {
	msg   string
	cause error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.cause }

var errBadFrame = errors.New("rpcnet: malformed frame")

// valid reports whether h may open a frame in its direction: an op of
// that direction, every field in bounds, a control payload of one path.
func (h header) valid(request bool) bool {
	switch {
	case h.PathLen > maxPath || h.TenLen > maxTenant || h.Offset < 0 || h.Length < 0:
		return false
	case !request:
		return h.Op == opData || h.Op == opStatus
	case h.Op == opWrite || h.Op == opRead:
		return h.Flags&^flagAppend == 0
	}
	return h.Op >= opStat && h.Op <= opDrain && h.Flags == 0 && h.Length <= maxPath
}

// writeFrame sends h, the two short strings and the payload in one
// gathered write.
func writeFrame(conn net.Conn, h header, path, tenant string, payload []byte) error {
	h.PathLen, h.TenLen = uint16(len(path)), uint16(len(tenant))
	head, err := binary.Append(make([]byte, 0, 32+len(path)+len(tenant)), binary.LittleEndian, h)
	if err != nil {
		return err
	}
	bufs := net.Buffers{append(append(head, path...), tenant...), payload}
	_, err = bufs.WriteTo(conn)
	return err
}

// readFrame reads a header and, if it is valid, the two short strings
// after it.
func readFrame(r io.Reader, request bool) (h header, path, tenant string, err error) {
	if err = binary.Read(r, binary.LittleEndian, &h); err == nil && !h.valid(request) {
		err = errBadFrame
	}
	if err != nil {
		return h, "", "", err
	}
	names := make([]byte, int(h.PathLen)+int(h.TenLen))
	_, err = io.ReadFull(r, names)
	return h, string(names[:h.PathLen]), string(names[h.PathLen:]), err
}

// writeStatus sends a status frame: h's fields with err's code, hint
// and message, then the h.Length bytes of a control call's value.
func writeStatus(conn net.Conn, h header, err error, value []byte) error {
	h.Op = opStatus
	var msg string
	if err != nil {
		h.Code = codeOther
		for c := codeOther + 1; c < len(wireErrors); c++ {
			if errors.Is(err, wireErrors[c]) {
				h.Code = uint16(c)
				break
			}
		}
		h.Offset = int64(core.RetryAfter(err))
		msg = err.Error()
		msg = msg[:min(len(msg), maxPath)]
	}
	return writeFrame(conn, h, msg, "", value)
}

// chunks pools the MaxChunk payload buffers, one per read in flight.
var chunks = sync.Pool{New: func() any { return new([MaxChunk]byte) }}

// exchange serves one request. A nil return means the reply is sent and
// the stream stands at the next request.
func (s *Service) exchange(conn net.Conn, br *bufio.Reader) error {
	h, path, tenant, err := readFrame(br, true)
	if err != nil {
		if errors.Is(err, errBadFrame) {
			// Say why; the hang-up follows whether or not this arrives.
			_ = writeStatus(conn, header{}, fmt.Errorf("%w: %+v", err, h), nil)
		}
		return err
	}
	body := &io.LimitedReader{R: br}
	if h.Op != opRead {
		body.N = h.Length
	}
	var value []byte
	// One admission token per exchange, taken before any writer or
	// reader exists and held until the reply is complete.
	release, err := s.admit(h.Op, tenant)
	if err == nil {
		defer release()
		switch h.Op {
		case opRead:
			err = s.serveRead(conn, h, path)
		case opWrite:
			err = s.serveWrite(body, h.Flags&flagAppend != 0, path)
		default:
			value, err = s.control(h, path, body)
		}
	}
	// A refused or failed upload still has payload on the wire: skip it
	// so the next request is readable. Payload that never comes is a
	// torn stream, which gets no reply.
	if _, cerr := io.Copy(io.Discard, body); cerr != nil || body.N > 0 {
		return io.ErrUnexpectedEOF
	}
	return writeStatus(conn, header{Length: int64(len(value))}, err, value)
}

// serveWrite copies the upload into one writer; the bsfs writer's
// ReadFrom reads the socket straight into its pending block. The writer
// is closed however the stream ends, so a torn upload commits what
// arrived and leaves nothing behind.
func (s *Service) serveWrite(body *io.LimitedReader, appendTo bool, path string) error {
	open := s.fs.Create
	if appendTo {
		open = s.fs.Append
	}
	w, err := open(path)
	if err != nil {
		return err
	}
	_, err = io.Copy(w, body)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// serveRead streams one snapshot through one reader: a status frame
// announcing the byte count, then data frames. The caller's status
// frame closes the reply.
func (s *Service) serveRead(conn net.Conn, h header, path string) error {
	var opts []fsapi.OpenOption
	if h.Version != 0 {
		opts = append(opts, fsapi.AtVersion(h.Version))
	}
	r, err := s.fs.OpenAt(path, opts...)
	if err != nil {
		return err
	}
	defer r.Close()
	off := min(h.Offset, r.Size())
	left := min(h.Length, r.Size()-off)
	if err := writeStatus(conn, header{Length: left}, nil, nil); err != nil {
		return err
	}
	buf := chunks.Get().(*[MaxChunk]byte)
	defer chunks.Put(buf)
	for ; left > 0 && err == nil; off, left = off+MaxChunk, left-MaxChunk {
		b := buf[:min(left, MaxChunk)]
		if _, err = r.ReadAt(b, off); err == nil {
			err = writeFrame(conn, header{Op: opData, Length: int64(len(b))}, "", "", b)
		}
	}
	return err
}

// fail closes the connection after a transport or framing error:
// the stream is out of step and cannot carry another exchange.
func (c *Client) fail(err error) error {
	c.conn.Close()
	return err
}

// exchange sends one request and reads the status frame that answers
// it; the caller holds c.mu.
func (c *Client) exchange(h header, path string, payload []byte) (header, error) {
	if len(path) > maxPath || len(c.Tenant) > maxTenant || !h.valid(true) {
		return h, fmt.Errorf("%w: path %d tenant %d bytes, offset %d length %d", errBadFrame, len(path), len(c.Tenant), h.Offset, h.Length)
	}
	if err := writeFrame(c.conn, h, path, c.Tenant, payload); err != nil {
		return h, c.fail(err)
	}
	h, err := c.reply()
	if err == nil && h.Op != opStatus {
		err = c.fail(errBadFrame)
	}
	return h, err
}

// reply reads the next reply frame up to its payload and returns the
// error a status frame carries.
func (c *Client) reply() (header, error) {
	h, msg, _, err := readFrame(c.br, false)
	if err != nil {
		return h, c.fail(err)
	}
	if h.Op == opData || h.Code == 0 {
		return h, nil
	}
	werr := &wireError{msg: msg}
	if int(h.Code) < len(wireErrors) {
		werr.cause = wireErrors[h.Code]
	}
	if errors.Is(werr.cause, core.ErrOverloaded) {
		werr.cause = &traffic.OverloadedError{Tenant: c.Tenant, RetryAfter: time.Duration(h.Offset)}
	}
	return h, werr
}

// readRange reads length bytes at off (fewer at the end of the file) of
// a snapshot: the first status frame sizes the result, the data frames
// fill it in place, the closing status vouches for it.
func (c *Client) readRange(path string, version uint64, off, length int64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, err := c.exchange(header{Op: opRead, Version: version, Offset: off, Length: length}, path, nil)
	if err != nil {
		return nil, err
	}
	if h.Length > length {
		return nil, c.fail(errBadFrame)
	}
	out := make([]byte, h.Length)
	for n := int64(0); ; n += h.Length {
		if h, err = c.reply(); err != nil {
			return nil, err
		}
		if h.Op == opStatus && n == int64(len(out)) {
			return out, nil
		}
		if h.Op != opData || h.Length > int64(len(out))-n {
			return nil, c.fail(errBadFrame)
		}
		if _, err = io.ReadFull(c.br, out[n:n+h.Length]); err != nil {
			return nil, c.fail(err)
		}
	}
}

// call is every request but a read: one frame out with its payload (the
// file to write, Rename's new path), one status frame back, whose
// payload, if it has one, decodes into the reply.
func call[Reply any](c *Client, h header, path string, payload []byte) (reply Reply, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h.Length = int64(len(payload))
	if h, err = c.exchange(h, path, payload); err != nil || h.Length == 0 {
		return reply, err
	}
	if h.Length > MaxChunk {
		return reply, c.fail(errBadFrame)
	}
	value := make([]byte, h.Length)
	if _, err = io.ReadFull(c.br, value); err != nil {
		return reply, c.fail(err)
	}
	err = json.Unmarshal(value, &reply)
	return reply, err
}
