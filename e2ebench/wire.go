package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is the load generator's own RESP client. It sends pre-encoded
// command frames and decodes replies with a parser of its own, so that a
// change to the repository's resp package moves only the server side of a
// measurement.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

// errReply is a RESP error reply (-text). It is a reply value, not a
// transport failure: the connection stays usable.
type errReply string

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// setDeadline bounds every read and write until t, so a hung server fails
// the run instead of stalling it.
func (c *conn) setDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// do sends one command frame and reads its reply (closed loop, pipeline
// depth 1).
func (c *conn) do(frame []byte) (any, error) {
	if _, err := c.c.Write(frame); err != nil {
		return nil, fmt.Errorf("write command: %w", err)
	}
	return readReply(c.br)
}

// command encodes args as a RESP array of bulk strings.
func command(args ...string) []byte {
	b := make([]byte, 0, 32+len(args)*16)
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(len(args)), 10)
	b = append(b, '\r', '\n')
	for _, a := range args {
		b = append(b, '$')
		b = strconv.AppendInt(b, int64(len(a)), 10)
		b = append(b, '\r', '\n')
		b = append(b, a...)
		b = append(b, '\r', '\n')
	}
	return b
}

// readReply decodes one reply into string, int64, nil, []any or errReply.
func readReply(br *bufio.Reader) (any, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("read reply: %w", err)
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("read reply: malformed line %q", line)
	}
	kind, body := line[0], line[1:len(line)-2]
	switch kind {
	case '+':
		return string(body), nil
	case '-':
		return errReply(body), nil
	case ':':
		n, err := strconv.ParseInt(string(body), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("read reply: bad integer %q", body)
		}
		return n, nil
	case '$':
		n, err := strconv.Atoi(string(body))
		if err != nil {
			return nil, fmt.Errorf("read reply: bad bulk length %q", body)
		}
		if n < 0 {
			return nil, nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("read reply: %w", err)
		}
		return string(buf[:n]), nil
	case '*':
		n, err := strconv.Atoi(string(body))
		if err != nil {
			return nil, fmt.Errorf("read reply: bad array length %q", body)
		}
		if n < 0 {
			return nil, nil
		}
		out := make([]any, n)
		for i := range out {
			if out[i], err = readReply(br); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("read reply: unknown type %q", kind)
}

// call sends one command built from args and returns an error for a
// transport failure or an error reply.
func (c *conn) call(args ...string) (any, error) {
	v, err := c.do(command(args...))
	if err != nil {
		return nil, err
	}
	if e, ok := v.(errReply); ok {
		return nil, fmt.Errorf("%s: %s", args[0], string(e))
	}
	return v, nil
}

// lines returns a reply that must be an array of strings (EXPLAIN,
// PROFILE) as a string slice.
func lines(v any) ([]string, error) {
	arr, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("want array reply, got %T", v)
	}
	out := make([]string, len(arr))
	for i, e := range arr {
		s, ok := e.(string)
		if !ok {
			return nil, fmt.Errorf("want string line, got %T", e)
		}
		out[i] = s
	}
	return out, nil
}
