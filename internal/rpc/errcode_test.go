package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"

	"yesquel/internal/wire"
)

// Typed error codes: the server's coder stamps AppError.Code onto the
// wire as a trailing optional field, and AppErrIs matches it without
// looking at message text. These tests pin the round trip, the
// unknown-method stamping, the coder-less zero, and — via a hand-built
// frame without the field — that the client decodes such a frame as
// Code 0.

var errTestSentinel = errors.New("errcode_test: sentinel")

const testCode = 42

func TestErrorCodeRoundTrip(t *testing.T) {
	s := NewServer()
	s.Register("fail", func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, fmt.Errorf("%w: wrapped detail", errTestSentinel)
	})
	s.SetErrorCoder(func(err error) uint64 {
		if errors.Is(err, errTestSentinel) {
			return testCode
		}
		return 0
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call(context.Background(), "fail", nil)
	var app *AppError
	if !errors.As(err, &app) {
		t.Fatalf("want *AppError, got %v", err)
	}
	if app.Code != testCode {
		t.Fatalf("Code = %d, want %d", app.Code, testCode)
	}
	if !AppErrIs(err, testCode) {
		t.Fatal("AppErrIs(code) = false for matching code")
	}
	if AppErrIs(err, testCode+1) {
		t.Fatal("AppErrIs matched a different code on a coded response")
	}
}

func TestErrorCodeUnknownMethod(t *testing.T) {
	s := NewServer()
	s.SetErrorCoder(func(err error) uint64 {
		if errors.Is(err, ErrUnknownMethod) {
			return testCode
		}
		return 0
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call(context.Background(), "no-such-method", nil)
	if !AppErrIs(err, testCode) {
		t.Fatalf("unknown-method rejection not stamped with coder's code: %v", err)
	}
}

func TestErrorCodeCoderlessServerSendsZero(t *testing.T) {
	// No coder installed: the server sends code 0, which matches no
	// code even when the message names the sentinel.
	s := NewServer()
	s.Register("fail", func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, fmt.Errorf("outer: %w", errTestSentinel)
	})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call(context.Background(), "fail", nil)
	var app *AppError
	if !errors.As(err, &app) {
		t.Fatalf("want *AppError, got %v", err)
	}
	if app.Code != 0 {
		t.Fatalf("Code = %d, want 0 from a coder-less server", app.Code)
	}
	if AppErrIs(err, testCode) {
		t.Fatal("AppErrIs matched a code-0 response by its text")
	}
}

// TestDecodeLegacyErrorFrame feeds the client an error response
// without the trailing code field from a hand-rolled server, and
// checks the client decodes it as Code 0 rather than failing the
// connection: the contract of a trailing optional field.
func TestDecodeLegacyErrorFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		r := wire.NewReader(payload)
		r.Byte()             // kind
		id, _ := r.Uvarint() // request id
		b := wire.NewBuffer(32)
		b.PutByte(kindResponse)
		b.PutUvarint(id)
		b.PutByte(statusErr)
		b.PutString("legacy: " + errTestSentinel.Error())
		// Deliberately NO trailing code uvarint.
		wire.WriteFrame(conn, b.Bytes())
		wire.ReadFrame(conn) // hold the conn open until the client is done
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), "anything", nil)
	var app *AppError
	if !errors.As(err, &app) {
		t.Fatalf("want *AppError from legacy frame, got %v", err)
	}
	if app.Code != 0 {
		t.Fatalf("Code = %d, want 0 from a legacy frame", app.Code)
	}
	if AppErrIs(err, testCode) {
		t.Fatal("AppErrIs matched a frame without a code")
	}
}
