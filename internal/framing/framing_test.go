package framing

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var data []byte
	payloads := [][]byte{[]byte(`{"a":1}`), {}, bytes.Repeat([]byte("x"), 1000)}
	for _, p := range payloads {
		data = append(data, Encode(p)...)
	}
	for i, want := range payloads {
		got, n, ok := Next(data)
		if !ok || !bytes.Equal(got, want) || n != HeaderSize+len(want) {
			t.Fatalf("frame %d: got %q (size %d, ok %v), want %q", i, got, n, ok, want)
		}
		data = data[n:]
	}
	if _, _, ok := Next(data); ok || len(data) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(data))
	}
}

// TestTornFramesAreNotIntact: every damage a crash or a bit flip can do
// to the last frame makes Next refuse it.
func TestTornFramesAreNotIntact(t *testing.T) {
	good := Encode([]byte(`{"kind":"submit"}`))
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xFF
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[0:4], MaxPayload+1)
	for name, data := range map[string][]byte{
		"short header":      good[:HeaderSize-1],
		"truncated payload": good[:len(good)-1],
		"checksum mismatch": corrupt,
		"length over bound": huge,
		"absurd length":     {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0},
	} {
		if _, _, ok := Next(data); ok {
			t.Errorf("%s: Next accepted the frame", name)
		}
	}
	// Every strict prefix of a frame is torn.
	for i := range good {
		if _, _, ok := Next(good[:i]); ok {
			t.Fatalf("prefix of %d bytes accepted", i)
		}
	}
}
