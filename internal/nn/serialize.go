package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Model file format ("PCVL"): a compact binary container for network weights.
// PERCIVAL ships its model inside the browser binary, so the format favors
// simple sequential reads over random access.
//
//	magic   [4]byte  "PCVL"
//	version uint16   1 = float32 weights, 2 = float16 weights (compressed)
//	nparams uint32
//	per param:
//	  nameLen uint16, name []byte
//	  rank    uint8,  shape []uint32
//	  data    []float32 (v1) or []uint16 IEEE half (v2)
const (
	magic          = "PCVL"
	versionFloat32 = 1
	versionFloat16 = 2
)

// Save writes the model's parameters in float32 (version 1).
func Save(w io.Writer, l Layer) error { return save(w, l, versionFloat32) }

// SaveCompressed writes the model's parameters quantized to IEEE float16,
// halving the on-disk footprint — the trick behind the paper's "<2 MB"
// in-browser model.
func SaveCompressed(w io.Writer, l Layer) error { return save(w, l, versionFloat16) }

func save(w io.Writer, l Layer, version uint16) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	params := l.Params()
	if err := binary.Write(bw, binary.LittleEndian, version); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if len(p.Name) > math.MaxUint16 {
			return fmt.Errorf("nn: save: parameter name too long: %q", p.Name[:32])
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(p.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(p.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(len(p.W.Shape))); err != nil {
			return err
		}
		for _, d := range p.W.Shape {
			if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		switch version {
		case versionFloat32:
			for _, v := range p.W.Data {
				if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
					return err
				}
			}
		case versionFloat16:
			for _, v := range p.W.Data {
				if err := binary.Write(bw, binary.LittleEndian, Float32ToHalf(v)); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("nn: save: unknown version %d", version)
		}
	}
	return bw.Flush()
}

// Load reads weights into an already-constructed model. Parameter names and
// shapes must match exactly; this guards against loading a mismatched
// architecture. The file is decoded in full before the model is touched: on
// any error — truncation, a mismatch halfway through — l keeps the weights
// it had.
func Load(r io.Reader, l Layer) error {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	if string(hdr[:]) != magic {
		return fmt.Errorf("nn: load: bad magic %q", hdr)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("nn: load: version: %w", err)
	}
	if version != versionFloat32 && version != versionFloat16 {
		return fmt.Errorf("nn: load: unsupported version %d", version)
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("nn: load: parameter count: %w", err)
	}
	params := l.Params()
	if int64(n) != int64(len(params)) {
		return fmt.Errorf("nn: load: file has %d params, model has %d", n, len(params))
	}
	decoded := make([][]float32, len(params))
	for pi, p := range params {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return fmt.Errorf("nn: load: %s: %w", p.Name, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return fmt.Errorf("nn: load: %s: %w", p.Name, err)
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: load: parameter %q in file, model expects %q", name, p.Name)
		}
		rank, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("nn: load: %s: %w", p.Name, err)
		}
		if int(rank) != len(p.W.Shape) {
			return fmt.Errorf("nn: load: %s: rank %d, model expects %d", p.Name, rank, len(p.W.Shape))
		}
		for i := 0; i < int(rank); i++ {
			var d uint32
			if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
				return fmt.Errorf("nn: load: %s: %w", p.Name, err)
			}
			if int64(d) != int64(p.W.Shape[i]) {
				return fmt.Errorf("nn: load: %s: dim %d is %d, model expects %d", p.Name, i, d, p.W.Shape[i])
			}
		}
		// The shape matched the model's, so the length is the model's too,
		// not a number the file chose.
		w := make([]float32, p.W.Len())
		switch version {
		case versionFloat32:
			if err := binary.Read(br, binary.LittleEndian, w); err != nil {
				return fmt.Errorf("nn: load: %s: %w", p.Name, err)
			}
		case versionFloat16:
			half := make([]uint16, len(w))
			if err := binary.Read(br, binary.LittleEndian, half); err != nil {
				return fmt.Errorf("nn: load: %s: %w", p.Name, err)
			}
			for i, h := range half {
				w[i] = HalfToFloat32(h)
			}
		}
		decoded[pi] = w
	}
	for pi, p := range params {
		copy(p.W.Data, decoded[pi])
		p.Changed()
	}
	return nil
}

// SaveFile writes the model to a file path.
func SaveFile(path string, l Layer, compressed bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if compressed {
		if err := SaveCompressed(f, l); err != nil {
			return err
		}
	} else if err := Save(f, l); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads model weights from a file path.
func LoadFile(path string, l Layer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Load(f, l)
}

// Float32ToHalf converts an IEEE 754 float32 to float16 with round-to-nearest
// (ties to even), clamping to ±Inf on overflow.
func Float32ToHalf(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16((bits >> 16) & 0x8000)
	exp := int32((bits>>23)&0xff) - 127 + 15
	mant := bits & 0x7fffff
	switch {
	case exp >= 0x1f: // overflow or already inf/nan
		if (bits>>23)&0xff == 0xff && mant != 0 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to zero
		}
		// subnormal half
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		if (mant>>(shift-1))&1 != 0 { // round
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp<<10) | uint16(mant>>13)
		if mant&0x1000 != 0 { // round to nearest
			half++
		}
		return half
	}
}

// HalfToFloat32 converts an IEEE 754 float16 to float32.
func HalfToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}
