package tcpnet

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/remoting"
)

// FuzzReadFrame: readFrame is the first thing a byte from the network meets.
// Whatever the stream holds, reading frames off it until it errors — as the
// server's connection loop does — must not panic; a length prefix that
// promises more than the stream delivers must not make it allocate past the
// frame-size cap; and every frame it accepts must re-frame to exactly the
// bytes it was read from. Seeded with the inputs of
// TestServerSurvivesMalformedFrames and TestReadFrameRejectsHugeFrames, one
// well-formed request frame, its one-way twin and one well-formed response
// frame.
func FuzzReadFrame(f *testing.F) {
	frame := func(id uint64, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, id, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	header := func(size uint32) []byte {
		var hdr [frameHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:4], size)
		return hdr[:]
	}
	f.Add(frame(7, []byte{0xde, 0xad, 0xbe, 0xef}))                            // garbage payload
	f.Add(header(maxFrame + 1))                                                // oversized length prefix
	f.Add([]byte{0x00, 0x00})                                                  // truncated prefix
	f.Add(append(header(100), 1, 2, 3))                                        // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})              // the largest lie a prefix can tell
	f.Add(append(frame(1, nil), frame(1<<63, bytes.Repeat([]byte{9}, 40))...)) // two frames back to back
	req, err := remoting.EncodeRequest(probeReq())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame(42, req))
	f.Add(frame(oneWayID, req))
	resp, err := remoting.EncodeResponse(&remoting.Response{Probe: &remoting.ProbeResponse{Sender: "server", Status: remoting.NodeOK}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame(42, resp))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for consumed := 0; ; {
			rest := data[consumed:]
			// Measuring allocation stops the world, so it is done only where
			// the prefix lies about what follows.
			lying := len(rest) >= frameHeaderLen && uint64(binary.BigEndian.Uint32(rest[0:4])) > uint64(len(rest)-frameHeaderLen)
			var before runtime.MemStats
			if lying {
				runtime.ReadMemStats(&before)
			}
			id, payload, err := readFrame(r)
			if lying {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				// A megabyte of slack for whatever else the process allocated.
				if grown := after.TotalAlloc - before.TotalAlloc; grown > maxFrame+1<<20 {
					t.Fatalf("a %d-byte stream with a lying length prefix made readFrame allocate %d bytes (cap %d)", len(rest), grown, maxFrame)
				}
				if err == nil {
					t.Fatalf("readFrame accepted a frame whose prefix promises more than the %d bytes that follow", len(rest)-frameHeaderLen)
				}
			}
			if err != nil {
				return
			}
			if len(payload) > maxFrame {
				t.Fatalf("readFrame accepted a %d-byte payload, over the %d-byte cap", len(payload), maxFrame)
			}
			var again bytes.Buffer
			if err := writeFrame(&again, id, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(rest, again.Bytes()) {
				t.Fatalf("an accepted frame (id %d, %d payload bytes) does not re-frame to the bytes it was read from", id, len(payload))
			}
			consumed += again.Len()
			if left := len(data) - consumed; r.Len() != left {
				t.Fatalf("readFrame left %d bytes unread, the frame it returned accounts for %d", r.Len(), left)
			}
		}
	})
}
