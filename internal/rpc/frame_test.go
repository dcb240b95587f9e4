package rpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"yesquel/internal/wire"
)

// The request and response frames are encoded straight into the
// buffer that is written, length prefix included. These tests pin the
// bytes on the wire to what wire.WriteFrame produces for the same
// payload, built here by hand from the frame layout.

func wantFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := wire.WriteFrame(&out, payload); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func requestPayload(id uint64, method string, body []byte) []byte {
	b := wire.NewBuffer(0)
	b.PutByte(kindRequest)
	b.PutUvarint(id)
	b.PutString(method)
	b.PutBytes(body)
	return b.Bytes()
}

func okPayload(id uint64, body []byte) []byte {
	b := wire.NewBuffer(0)
	b.PutByte(kindResponse)
	b.PutUvarint(id)
	b.PutByte(statusOK)
	b.PutBytes(body)
	return b.Bytes()
}

func errPayload(id uint64, msg string, code uint64) []byte {
	b := wire.NewBuffer(0)
	b.PutByte(kindResponse)
	b.PutUvarint(id)
	b.PutByte(statusErr)
	b.PutString(msg)
	b.PutUvarint(code)
	return b.Bytes()
}

// acceptOne listens on an ephemeral port and hands the first accepted
// connection to the returned channel.
func acceptOne(t *testing.T) (string, <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(ch)
			return
		}
		t.Cleanup(func() { conn.Close() })
		ch <- conn
	}()
	return ln.Addr().String(), ch
}

func readExactly(t *testing.T, r io.Reader, n int) []byte {
	t.Helper()
	got := make([]byte, n)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("reading %d frame bytes: %v", n, err)
	}
	return got
}

func TestRequestFrameMatchesWriteFrame(t *testing.T) {
	addr, accepted := acceptOne(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := <-accepted

	body := bytes.Repeat([]byte("req"), 100)
	type result struct {
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		got, err := c.Call(context.Background(), "echo", body)
		done <- result{got, err}
	}()
	want := wantFrame(t, requestPayload(1, "echo", body))
	if got := readExactly(t, conn, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("request frame\n got %x\nwant %x", got, want)
	}
	// Answer through the reference writer; the client hands back the
	// body it read out of that frame.
	reply := []byte("reply body")
	if err := wire.WriteFrame(conn, okPayload(1, reply)); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil || !bytes.Equal(res.body, reply) {
		t.Fatalf("Call = %q, %v; want %q", res.body, res.err, reply)
	}
}

func TestResponseFramesMatchWriteFrame(t *testing.T) {
	s := NewServer()
	okBody := bytes.Repeat([]byte("resp"), 100)
	s.Register("ok", func(_ context.Context, _ []byte) ([]byte, error) {
		return okBody, nil
	})
	s.Register("fail", func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, errTestSentinel
	})
	s.SetErrorCoder(func(err error) uint64 {
		if errors.Is(err, errTestSentinel) {
			return testCode
		}
		return 0
	})
	conn, err := net.Dial("tcp", startServer(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cases := []struct {
		method string
		want   []byte
	}{
		{"ok", okPayload(7, okBody)},
		{"fail", errPayload(8, errTestSentinel.Error(), testCode)},
	}
	for i, tc := range cases {
		id := uint64(7 + i)
		if err := wire.WriteFrame(conn, requestPayload(id, tc.method, nil)); err != nil {
			t.Fatal(err)
		}
		want := wantFrame(t, tc.want)
		if got := readExactly(t, conn, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("%s response frame\n got %x\nwant %x", tc.method, got, want)
		}
	}
}

func TestOversizeRequestNotSent(t *testing.T) {
	addr, accepted := acceptOne(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := <-accepted

	bigErr := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "big", make([]byte, wire.MaxFrameSize))
		bigErr <- err
	}()
	select {
	case err := <-bigErr:
		if !errors.Is(err, ErrNotSent) || !errors.Is(err, wire.ErrFrameTooLarge) {
			t.Fatalf("oversize Call: got %v, want ErrNotSent wrapping wire.ErrFrameTooLarge", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("oversize Call blocked: it is writing the frame")
	}
	// Not one byte of the oversize frame reached the wire: the first
	// bytes the server sees are the next call's frame, and the
	// connection still works.
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "small", []byte("x"))
		done <- err
	}()
	want := wantFrame(t, requestPayload(2, "small", []byte("x")))
	if got := readExactly(t, conn, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("first frame after the oversize call\n got %x\nwant %x", got, want)
	}
	if err := wire.WriteFrame(conn, okPayload(2, nil)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Call after the oversize call: %v", err)
	}
}
