// Package framing is the record framing shared by the repository's
// append-only files: the service's write-ahead log and the sweep cache's
// pack segments. A frame is
//
//	[uint32 payload length][uint32 CRC-32 (IEEE) of payload][payload]
//
// little-endian. A writer appends whole frames to a file only it writes,
// so a crash can damage at most the frame it was writing: readers take
// the frames up to the first one that is not intact and treat the rest
// as never written. That single torn-tail rule serves every store.
package framing

import (
	"encoding/binary"
	"hash/crc32"
)

// HeaderSize is the length of a frame's header.
const HeaderSize = 8

// MaxPayload bounds one frame's payload. A longer length prefix marks a
// torn or corrupt frame, so writers must refuse payloads above it rather
// than write a frame that would end every reader's scan.
const MaxPayload = 16 << 20

// Encode returns payload framed with its length and checksum.
func Encode(payload []byte) []byte {
	buf := make([]byte, HeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[HeaderSize:], payload)
	return buf
}

// Next decodes the frame at the start of data and returns its payload
// and the frame's total size. ok is false when data does not start with
// an intact frame: a short header, a length over MaxPayload, a truncated
// payload or a checksum mismatch. The payload aliases data.
func Next(data []byte) (payload []byte, size int, ok bool) {
	if len(data) < HeaderSize {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if n > MaxPayload || uint64(len(data)-HeaderSize) < uint64(n) {
		return nil, 0, false
	}
	payload = data[HeaderSize : HeaderSize+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, HeaderSize + int(n), true
}
