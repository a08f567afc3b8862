package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"percival/internal/imaging"
	"percival/internal/synth"
)

// FuzzWireMsg drives the persistent-socket wire's two stream decoders with
// arbitrary bytes. They parse length-prefixed frames off a long-lived TCP
// connection — the server's (and client's) untrusted-input surface — so the
// contract is: bounded allocation before any length is validated, an error
// for every malformed prefix, and never a panic. Whatever does decode must
// re-encode/route without crashing.
func FuzzWireMsg(f *testing.F) {
	// seeds: well-formed messages of every shape, then each invariant the
	// decoders enforce broken one at a time. A v3 probe entry is the 32-byte
	// key alone.
	frames := synth.SampleFrames(3, 2)
	keys := make([][32]byte, len(frames))
	for i := range keys {
		keys[i][0], keys[i][31] = byte(i), 0x9e
	}
	var probe bytes.Buffer
	var hdr [sockHeaderLen]byte
	putSockHeader(hdr[:], batchMagic, 7, sockFlagProbe, uint32(len(frames)))
	probe.Write(hdr[:])
	for i := range frames {
		probe.Write(keys[i][:])
	}
	f.Add(probe.Bytes())

	var pixels bytes.Buffer
	putSockHeader(hdr[:], batchMagic, 8, 0, uint32(len(frames)))
	pixels.Write(hdr[:])
	var dims [8]byte
	for i, fr := range frames {
		pixels.Write(keys[i][:])
		binary.LittleEndian.PutUint32(dims[0:4], uint32(fr.W))
		binary.LittleEndian.PutUint32(dims[4:8], uint32(fr.H))
		pixels.Write(dims[:])
		pixels.Write(fr.Pix)
	}
	f.Add(pixels.Bytes())

	var scoresPlain bytes.Buffer
	putSockHeader(hdr[:], scoreMagic, 9, 0, 2)
	scoresPlain.Write(hdr[:])
	scoresPlain.Write(make([]byte, 16))
	f.Add(scoresPlain.Bytes())

	var scoresMasked bytes.Buffer
	putSockHeader(hdr[:], scoreMagic, 10, sockFlagMask, 3)
	scoresMasked.Write(hdr[:])
	scoresMasked.WriteByte(0b101) // 2 hits of 3
	scoresMasked.Write(make([]byte, 16))
	f.Add(scoresMasked.Bytes())

	// broken invariants: truncations, version skew, id/flag noise, counts
	// and dims past every bound (including the w*h*4 overflow corner)
	f.Add(probe.Bytes()[:sockHeaderLen-3])
	f.Add(pixels.Bytes()[:pixels.Len()-5])
	skew := append([]byte{}, probe.Bytes()...)
	binary.LittleEndian.PutUint16(skew[4:6], 0xffff)
	f.Add(skew)
	noise := append([]byte{}, scoresPlain.Bytes()...)
	binary.LittleEndian.PutUint32(noise[6:10], 0xdeadbeef) // unknown id
	binary.LittleEndian.PutUint32(noise[10:14], 0xff)      // reserved flags
	f.Add(noise)
	huge := append([]byte{}, pixels.Bytes()[:sockHeaderLen]...)
	binary.LittleEndian.PutUint32(huge[14:18], 0xffffffff)
	f.Add(huge)
	var overflow bytes.Buffer
	putSockHeader(hdr[:], batchMagic, 11, 0, 1)
	overflow.Write(hdr[:])
	overflow.Write(keys[0][:])
	binary.LittleEndian.PutUint32(dims[0:4], 1<<15)
	binary.LittleEndian.PutUint32(dims[4:8], 1<<15)
	overflow.Write(dims[:])
	f.Add(overflow.Bytes())
	mask := append([]byte{}, scoresMasked.Bytes()...)
	mask[sockHeaderLen] = 0xff // bits set past count
	f.Add(mask)

	f.Fuzz(func(t *testing.T, data []byte) {
		// decode into used scratch, as a connection's reader does: whatever a
		// previous message left behind must not show through
		req := &sockReq{probe: true, keys: make([][32]byte, 3), frames: []*imaging.Bitmap{imaging.NewBitmap(1, 1)}}
		if err := req.read(bufio.NewReader(bytes.NewReader(data))); err == nil {
			// decoded requests must be internally consistent: the server
			// indexes keys and frames by the same count
			if req.probe {
				if len(req.keys) == 0 || len(req.frames) != 0 {
					t.Fatalf("probe shape: %d keys, %d frames", len(req.keys), len(req.frames))
				}
			} else {
				if len(req.frames) != len(req.keys) || len(req.frames) == 0 {
					t.Fatalf("pixel shape: %d keys, %d frames", len(req.keys), len(req.frames))
				}
				for _, fr := range req.frames {
					if fr.W <= 0 || fr.H <= 0 || len(fr.Pix) != fr.W*fr.H*4 {
						t.Fatalf("decoded frame %dx%d with %d pixel bytes", fr.W, fr.H, len(fr.Pix))
					}
				}
			}
		}
		resp := &sockResp{masked: true, count: 9, mask: []byte{0xff, 1}, scores: make([]float64, 9)}
		if err := resp.read(bufio.NewReader(bytes.NewReader(data))); err == nil {
			// the client walks mask bits against the score slice; a decoded
			// response must never send it out of bounds
			if resp.masked {
				hits := 0
				for i := 0; i < resp.count; i++ {
					if resp.mask[i/8]&(1<<(i%8)) != 0 {
						hits++
					}
				}
				if hits != len(resp.scores) {
					t.Fatalf("mask sets %d bits, %d scores decoded", hits, len(resp.scores))
				}
			} else if len(resp.scores) != resp.count {
				t.Fatalf("%d scores for count %d", len(resp.scores), resp.count)
			}
		}
	})
}

// FuzzBatchFrames drives decodeFrames, the POST /classify/batch request
// decoder — the one batch-codec decoder still reachable from the network —
// with arbitrary bytes. The contract: never a panic, no pixel buffer sized
// from an unchecked header, and a clean decode returns exactly the frames
// the body's headers declare, each with w*h*4 pixel bytes.
func FuzzBatchFrames(f *testing.F) {
	valid := encodeFrames(nil, synth.SampleFrames(3, 2))
	edit := func(fn func(b []byte) []byte) []byte { return fn(append([]byte{}, valid...)) }
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // truncated pixels
	f.Add(edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[6:], 0); return b[:wireHeaderLen] }))
	f.Add(edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[6:], maxWireFrames+1); return b }))
	f.Add(edit(func(b []byte) []byte { // 2^15 x 2^15: each edge in bounds, the byte size not
		binary.LittleEndian.PutUint32(b[6:], 1)
		binary.LittleEndian.PutUint32(b[wireHeaderLen:], 1<<15)
		binary.LittleEndian.PutUint32(b[wireHeaderLen+4:], 1<<15)
		return b[:wireHeaderLen+8]
	}))
	f.Add(edit(func(b []byte) []byte { copy(b, "XXXX"); return b }))
	f.Add(edit(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[4:], wireVersion+1); return b }))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := decodeFrames(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n := binary.LittleEndian.Uint32(data[6:]); uint32(len(frames)) != n {
			t.Fatalf("decoded %d frames, header declares %d", len(frames), n)
		}
		off := wireHeaderLen
		for i, fr := range frames {
			w := int(binary.LittleEndian.Uint32(data[off:]))
			h := int(binary.LittleEndian.Uint32(data[off+4:]))
			if fr.W != w || fr.H != h || len(fr.Pix) != w*h*4 {
				t.Fatalf("frame %d decoded %dx%d with %d pixel bytes, header says %dx%d", i, fr.W, fr.H, len(fr.Pix), w, h)
			}
			if !bytes.Equal(fr.Pix, data[off+8:off+8+len(fr.Pix)]) {
				t.Fatalf("frame %d pixels differ from the body", i)
			}
			off += 8 + len(fr.Pix)
		}
	})
}

// FuzzRestoreCache drives VerdictMap.Restore — the -cache-file decoder —
// with arbitrary bytes. The daemon reads the snapshot at start-up from a
// file a crash, a full disk or an operator may have left in any shape, so
// the contract is: never a panic, never more entries reported than the input
// holds complete, never more stored than the store's capacity, and a clean
// decode keeps every score bit for bit and snapshots back to bytes that
// restore to the same store.
func FuzzRestoreCache(f *testing.F) {
	src := NewVerdictMap(0)
	for i := 0; i < 5; i++ {
		src.StoreVerdict(verdictKey(i), float64(i)/7)
	}
	var valid bytes.Buffer
	if _, err := src.Snapshot(&valid); err != nil {
		f.Fatal(err)
	}
	seed := func(edit func(b []byte) []byte) {
		f.Add(edit(append([]byte{}, valid.Bytes()...)))
	}
	seed(func(b []byte) []byte { return b })
	seed(func(b []byte) []byte { return b[:len(b)-snapshotEntry/2] }) // cut mid-entry
	seed(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[6:], 0xffffffff); return b })
	seed(func(b []byte) []byte { copy(b, "XXXX"); return b })
	seed(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[4:], 2); return b })
	f.Add([]byte{})

	const capacity = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewVerdictMap(capacity)
		n, err := m.Restore(bytes.NewReader(data))
		if complete := max(len(data)-snapshotHeader, 0) / snapshotEntry; n > complete {
			t.Fatalf("restored %d entries from %d bytes (%d complete entries)", n, len(data), complete)
		}
		if m.Len() > capacity {
			t.Fatalf("store holds %d entries, capacity %d", m.Len(), capacity)
		}
		if err != nil {
			return
		}
		// the last score stored under a key is the one kept
		last := map[[32]byte]uint64{}
		for i := 0; i < n; i++ {
			e := data[snapshotHeader+i*snapshotEntry:]
			last[[32]byte(e[:32])] = binary.LittleEndian.Uint64(e[32:])
		}
		if len(last) <= capacity {
			for k, bits := range last {
				if v, ok := m.LookupVerdict(k); !ok || math.Float64bits(v) != bits {
					t.Fatalf("key %x restored (%v, %v), want bits %#x", k[:4], v, ok, bits)
				}
			}
		}
		var a, b bytes.Buffer
		m.Snapshot(&a)
		again := NewVerdictMap(capacity)
		if _, err := again.Restore(bytes.NewReader(a.Bytes())); err != nil {
			t.Fatalf("own snapshot refused: %v", err)
		}
		again.Snapshot(&b)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("snapshot -> restore -> snapshot changed the bytes")
		}
	})
}
