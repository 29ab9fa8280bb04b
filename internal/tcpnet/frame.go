package tcpnet

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire framing: every message (request or response) is
//
//	4 bytes big-endian payload length
//	8 bytes big-endian request ID
//	payload (remoting binary codec)
//
// The request ID lets many requests share one connection: the client assigns
// IDs, the server echoes each request's ID on its response, and the client's
// demux reader routes responses back to waiters regardless of completion
// order. IDs are per-connection, so 64 bits never wrap in practice.
//
// ID 0 marks a one-way frame, which is what a best-effort send writes: the
// server handles the request and writes nothing back, so the sender never
// waits out a round trip for an alert or a vote. The client numbers its
// requests from 1, and drops any response that carries ID 0.

// oneWayID is the request ID of a frame the server must not answer.
const oneWayID = 0

// maxFrame bounds a single payload to protect against corrupted prefixes.
const maxFrame = 16 << 20

// frameHeaderLen is the fixed header: length prefix plus request ID.
const frameHeaderLen = 12

// readBufferSize is the read buffer of each end of a connection. It holds a
// membership message with its header (a probe is 14 bytes, an alert batch
// about 120), so one read takes a frame instead of two, and a thousand
// connections cost half a megabyte; larger frames bypass it.
const readBufferSize = 512

// writeFrame writes one framed message. Callers serialize writes per
// connection (frames must not interleave).
func writeFrame(w io.Writer, id uint64, payload []byte) error {
	hdr := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	// One Write call per frame: interleaving-safe under the caller's write
	// lock and one syscall for small membership messages.
	_, err := w.Write(append(hdr, payload...))
	return err
}

// readFrame reads one framed message, returning its request ID and payload.
func readFrame(r io.Reader) (uint64, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[0:4])
	if size > maxFrame {
		return 0, nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", size)
	}
	id := binary.BigEndian.Uint64(hdr[4:12])
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return id, buf, nil
}
