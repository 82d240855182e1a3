package resp

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCommand("GRAPH.QUERY", "g", "MATCH (n) RETURN n"); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || args[0] != "GRAPH.QUERY" || args[2] != "MATCH (n) RETURN n" {
		t.Fatalf("args: %v", args)
	}
}

func TestInlineCommand(t *testing.T) {
	r := NewReader(strings.NewReader("PING hello\r\n"))
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 2 || args[1] != "hello" {
		t.Fatalf("args: %v", args)
	}
	// Quoted inline arguments.
	r = NewReader(strings.NewReader(`GRAPH.QUERY g "MATCH (n) RETURN n"` + "\r\n"))
	args, err = r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || args[2] != "MATCH (n) RETURN n" {
		t.Fatalf("args: %v", args)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	cases := []any{
		SimpleString("OK"),
		"bulk",
		int64(-42),
		nil,
		[]any{SimpleString("a"), int64(1), nil, []any{"nested"}},
		[]string{"x", "y"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteReply(c); err != nil {
			t.Fatal(err)
		}
		got, err := NewReader(&buf).ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		switch want := c.(type) {
		case nil:
			if got != nil {
				t.Fatalf("nil: %v", got)
			}
		case SimpleString:
			if got.(SimpleString) != want {
				t.Fatalf("simple: %v", got)
			}
		case string:
			if got.(string) != want {
				t.Fatalf("bulk: %v", got)
			}
		case int64:
			if got.(int64) != want {
				t.Fatalf("int: %v", got)
			}
		case []string:
			arr := got.([]any)
			if len(arr) != len(want) {
				t.Fatalf("strs: %v", got)
			}
		case []any:
			arr := got.([]any)
			if len(arr) != len(want) {
				t.Fatalf("array: %v", got)
			}
		}
	}
}

func TestErrorReply(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteReply(errors.New("ERR something bad")); err != nil {
		t.Fatal(err)
	}
	_, err := NewReader(&buf).ReadReply()
	var er ErrorReply
	if !errors.As(err, &er) || !strings.Contains(string(er), "something bad") {
		t.Fatalf("err = %v", err)
	}
}

func TestBinarySafeBulk(t *testing.T) {
	var buf bytes.Buffer
	payload := "line1\r\nline2\x00bin"
	NewWriter(&buf).WriteReply(payload)
	got, err := NewReader(&buf).ReadReply()
	if err != nil || got.(string) != payload {
		t.Fatalf("%q %v", got, err)
	}
}

func TestMalformedInput(t *testing.T) {
	for _, in := range []string{
		"*2\r\n$3\r\nab", // truncated
		"*x\r\n",         // bad count
		"$5\r\nab\r\n",   // short bulk
		"!weird\r\n",     // unknown type
	} {
		r := NewReader(strings.NewReader(in))
		if _, err := r.ReadReply(); err == nil {
			if _, err := r.ReadCommand(); err == nil {
				t.Fatalf("%q: expected error", in)
			}
		}
	}
}

func TestReadCommandRejectsHostileLengths(t *testing.T) {
	for _, in := range []string{
		"*9223372036854775807\r\n",
		"*1\r\n$9223372036854775800\r\n",
		fmt.Sprintf("*%d\r\n", maxArgs+1),
		fmt.Sprintf("*1\r\n$%d\r\n", maxBulkLen+1),
		// Within the limits, but the bytes never arrive.
		fmt.Sprintf("*%d\r\n", maxArgs),
		fmt.Sprintf("*1\r\n$%d\r\nabc", maxBulkLen),
	} {
		if args, err := NewReader(strings.NewReader(in)).ReadCommand(); err == nil {
			t.Errorf("%.40q: want error, got %d args", in, len(args))
		}
	}
}

func TestReadCommandLongArgument(t *testing.T) {
	long := strings.Repeat("0123456789", bulkPrealloc/5)
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteCommand("SET", "k", long); err != nil {
		t.Fatal(err)
	}
	args, err := NewReader(&buf).ReadCommand()
	if err != nil || len(args) != 3 || args[2] != long {
		t.Fatalf("%d args, err %v", len(args), err)
	}
}

// FuzzReadCommand checks the command decoder two ways: arbitrary bytes
// decode to arguments or an error and never panic, and a command encoded
// by WriteCommand decodes to exactly its arguments. The round-trip
// arguments are the input split at NUL bytes.
func FuzzReadCommand(f *testing.F) {
	f.Add([]byte("*2\r\n$4\r\nECHO\r\n$2\r\nhi\r\n"))
	f.Add([]byte("GRAPH.QUERY g \"MATCH (n) RETURN n\"\r\n"))
	f.Add([]byte("*9223372036854775807\r\n"))
	f.Add([]byte("*1\r\n$9223372036854775800\r\n"))
	f.Add([]byte("*1\r\n$70000\r\nxyz"))
	f.Add([]byte("GRAPH.QUERY\x00g\x00CREATE (:N {s: 'a\r\nb'})"))
	f.Fuzz(func(t *testing.T, data []byte) {
		NewReader(bytes.NewReader(data)).ReadCommand()

		args := strings.Split(string(data), "\x00")
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteCommand(args...); err != nil {
			t.Fatal(err)
		}
		got, err := NewReader(&buf).ReadCommand()
		if err != nil {
			t.Fatalf("round trip of %q: %v", args, err)
		}
		if !slices.Equal(got, args) {
			t.Fatalf("round trip: got %q, want %q", got, args)
		}
	})
}
