package label

import (
	"encoding/binary"
	"fmt"
)

// Binary serialization of the canonical label form, used by the single-level
// store to persist object labels.  The encoding is the canonical
// representation itself — default level, entry count, then the sorted
// category/level pairs — so decoding performs no sorting: the entries are
// validated to be in strictly ascending category order.

// AppendBinary appends the canonical encoding of l to dst and returns the
// extended slice.
func (l Label) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(l.def))
	dst = binary.AppendUvarint(dst, uint64(len(l.pairs)))
	for _, p := range l.pairs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Category))
		dst = append(dst, byte(p.Level))
	}
	return dst
}

// DecodeBinary decodes one label from the front of src, returning the label
// and the remaining bytes.  The input must be in canonical form (strictly
// ascending categories, no entry at the default level); anything else is
// rejected, since Equal and the merges assume the canonical form.
func DecodeBinary(src []byte) (Label, []byte, error) {
	if len(src) < 2 {
		return Label{}, src, fmt.Errorf("label: truncated encoding")
	}
	def := Level(src[0])
	if !def.Valid() || def == HiStar {
		return Label{}, src, fmt.Errorf("label: invalid default level %d in encoding", src[0])
	}
	src = src[1:]
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return Label{}, src, fmt.Errorf("label: bad entry count")
	}
	src = src[sz:]
	if n > uint64(len(src))/9 {
		return Label{}, src, fmt.Errorf("label: truncated encoding: %d entries, %d bytes left", n, len(src))
	}
	if def == Star && n == 0 {
		return Label{}, src, nil // the zero-label sentinel round-trips
	}
	if def == Star {
		return Label{}, src, fmt.Errorf("label: non-empty label with ⋆ default in encoding")
	}
	pairs := make([]Pair, n)
	var prev Category
	for i := range pairs {
		c := Category(binary.LittleEndian.Uint64(src))
		lv := Level(src[8])
		src = src[9:]
		if !c.Valid() {
			return Label{}, src, fmt.Errorf("label: invalid category %d in encoding", uint64(c))
		}
		if !lv.Valid() || lv == def {
			return Label{}, src, fmt.Errorf("label: non-canonical level %d in encoding", uint8(lv))
		}
		if i > 0 && c <= prev {
			return Label{}, src, fmt.Errorf("label: categories out of order in encoding")
		}
		prev = c
		pairs[i] = P(c, lv)
	}
	return newCanonical(def, pairs), src, nil
}
