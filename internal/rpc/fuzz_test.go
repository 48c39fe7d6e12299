package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to readFrame as if a peer sent them.
// Properties: it never panics; what it allocates is bounded by the bytes
// actually supplied, not by the length the header claims (so never by more
// than MaxMessageSize); and a Request it decodes survives a writeFrame /
// readFrame round trip unchanged. The seed corpus is testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readFrame(bytes.NewReader(data), &req)
		runtime.ReadMemStats(&after)
		// The slack covers the JSON decoder's own state and stray
		// allocations by the runtime between the two snapshots.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+1<<20); alloc > limit {
			t.Fatalf("readFrame of %d input bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > MaxMessageSize && err == nil {
			t.Fatal("frame over MaxMessageSize accepted")
		}
		if err != nil {
			return
		}

		// Round trip: the decoded value re-encodes to a frame that decodes
		// to the same value. Params compare by their wire encoding, since
		// writeFrame compacts raw JSON.
		var first, second bytes.Buffer
		if err := writeFrame(&first, req); err != nil {
			return // the re-encoding outgrew the frame limit
		}
		var again Request
		if err := readFrame(bytes.NewReader(first.Bytes()), &again); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if again.ID != req.ID || again.Method != req.Method {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, again)
		}
		if err := writeFrame(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the params: %q -> %q", first.Bytes(), second.Bytes())
		}
	})
}

// TestReadFrameAcrossChunks decodes a frame several times frameChunk long,
// and reports a frame cut short past the first chunk as a truncated read.
func TestReadFrameAcrossChunks(t *testing.T) {
	want := Request{ID: 3, Method: strings.Repeat("m", 5*frameChunk/2)}
	var buf bytes.Buffer
	if err := writeFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := readFrame(bytes.NewReader(buf.Bytes()), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Method != want.Method {
		t.Fatalf("decoded %d-byte method, want %d", len(got.Method), len(want.Method))
	}
	cut := buf.Bytes()[:4+frameChunk]
	if err := readFrame(bytes.NewReader(cut), &got); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
}
