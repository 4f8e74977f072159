package ulp430

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/gsim"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Binary codec for PortableState, used by the exploration checkpoint
// journal and the fleet wire: a published fork survives a process kill
// by writing its portable state to disk, and a restarted process (or a
// remote worker) re-enqueues it via DecodePortable + RestorePortable.
// The encoding is deterministic (fixed field order, little-endian), so
// re-encoding a decoded state is byte-identical — the property the
// resume tests lean on.
//
// The codec carries no netlist or image data, and memory only as the
// state's sparse diff against memory as loaded: like RestorePortable, a
// decoded state is only meaningful on a System built from the same
// netlist, image, inputs, and peripheral configuration, which the
// journal's owning layer guarantees by keying checkpoint files to the
// analysis cache key. The gate engine may differ: both keep net state
// in the same planes.

// portableMagic identifies (and versions) the encoding. Bump on any
// layout change: stale checkpoint files must fail decode, not
// misinterpret.
var portableMagic = [4]byte{'u', 'p', 's', '4'}

// EncodePortable serializes st into one buffer sized up front.
func EncodePortable(st *PortableState) []byte {
	staged := st.sim.StagedRecs(nil)
	var errText string
	if st.err != nil {
		errText = st.err.Error()
	}
	sn := st.sim
	size := len(portableMagic) +
		4*4 + 8*(len(sn.PlaneV)+len(sn.PlaneK)+len(sn.PrevPlaneV)+len(sn.PrevPlaneK)) +
		4 + 5*len(staged) + 8 +
		4 + 6*len(st.patches) +
		4 + 1 + binary.Size(st.bus) + 4 + len(errText)
	b := make([]byte, 0, size)
	b = append(b, portableMagic[:]...)
	b = putU64s(b, sn.PlaneV)
	b = putU64s(b, sn.PlaneK)
	b = putU64s(b, sn.PrevPlaneV)
	b = putU64s(b, sn.PrevPlaneK)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(staged)))
	for _, r := range staged {
		b = binary.LittleEndian.AppendUint32(b, uint32(r.ID))
		b = append(b, byte(r.V))
	}
	b = binary.LittleEndian.AppendUint64(b, sn.Cycle)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.patches)))
	for _, p := range st.patches {
		b = binary.LittleEndian.AppendUint16(b, p.idx)
		b = binary.LittleEndian.AppendUint16(b, p.w.val)
		b = binary.LittleEndian.AppendUint16(b, p.w.xmask)
	}
	b = binary.LittleEndian.AppendUint16(b, st.lastDin.val)
	b = binary.LittleEndian.AppendUint16(b, st.lastDin.xmask)
	b = append(b, byte(st.lastLine))
	// BusState is a flat fixed-size struct; appending it cannot fail.
	b, _ = binary.Append(b, binary.LittleEndian, st.bus)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(errText)))
	return append(b, errText...)
}

// DecodePortable deserializes a state produced by EncodePortable.
func DecodePortable(data []byte) (*PortableState, error) {
	r := &byteReader{buf: data}
	var magic [4]byte
	r.read(magic[:])
	if r.err == nil && magic != portableMagic {
		return nil, fmt.Errorf("ulp430: portable state: bad magic %q", magic[:])
	}
	st := &PortableState{sim: &gsim.Snapshot{}}
	st.sim.PlaneV = getU64s(r)
	st.sim.PlaneK = getU64s(r)
	st.sim.PrevPlaneV = getU64s(r)
	st.sim.PrevPlaneK = getU64s(r)
	n := int(getU32(r))
	if r.err == nil && n > r.remaining()/5 {
		return nil, errors.New("ulp430: portable state: truncated staged inputs")
	}
	staged := make([]gsim.StagedInputRec, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		id := getU32(r)
		v := getByte(r)
		staged = append(staged, gsim.StagedInputRec{ID: netlist.NetID(id), V: logic.Trit(v)})
	}
	st.sim.SetStagedRecs(staged)
	st.sim.Cycle = getU64(r)
	m := int(getU32(r))
	if r.err == nil && m > r.remaining()/6 {
		return nil, errors.New("ulp430: portable state: truncated memory patches")
	}
	st.patches = make([]memPatch, m)
	for i := 0; i < m; i++ {
		p := &st.patches[i]
		p.idx = getU16(r)
		p.w.val = getU16(r)
		p.w.xmask = getU16(r)
		if p.idx >= memWords {
			return nil, fmt.Errorf("ulp430: portable state: memory patch index %d outside [0, %d)", p.idx, memWords)
		}
		if i > 0 && p.idx <= st.patches[i-1].idx {
			return nil, fmt.Errorf("ulp430: portable state: memory patch index %d does not follow %d", p.idx, st.patches[i-1].idx)
		}
	}
	st.lastDin.val = getU16(r)
	st.lastDin.xmask = getU16(r)
	st.lastLine = logic.Trit(getByte(r))
	if r.err == nil {
		if n, err := binary.Decode(r.buf[r.off:], binary.LittleEndian, &st.bus); err != nil {
			r.err = err
		} else {
			r.off += n
		}
	}
	if s := getString(r); s != "" {
		st.err = errors.New(s)
	}
	if r.err != nil {
		return nil, fmt.Errorf("ulp430: portable state: %w", r.err)
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("ulp430: portable state: %d trailing bytes", len(r.buf)-r.off)
	}
	return st, nil
}

func putU64s(b []byte, vs []uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// byteReader is a bounds-checked cursor: the first short read latches an
// error and every later get returns zero, so decode paths need one error
// check at the end rather than one per field.
type byteReader struct {
	buf []byte
	off int
	err error
}

func (r *byteReader) remaining() int { return len(r.buf) - r.off }

func (r *byteReader) read(dst []byte) {
	if r.err != nil {
		return
	}
	if r.remaining() < len(dst) {
		r.err = errors.New("short read")
		return
	}
	copy(dst, r.buf[r.off:])
	r.off += len(dst)
}

func getByte(r *byteReader) byte {
	var t [1]byte
	r.read(t[:])
	return t[0]
}

func getU16(r *byteReader) uint16 {
	var t [2]byte
	r.read(t[:])
	return binary.LittleEndian.Uint16(t[:])
}

func getU32(r *byteReader) uint32 {
	var t [4]byte
	r.read(t[:])
	return binary.LittleEndian.Uint32(t[:])
}

func getU64(r *byteReader) uint64 {
	var t [8]byte
	r.read(t[:])
	return binary.LittleEndian.Uint64(t[:])
}

func getU64s(r *byteReader) []uint64 {
	n := int(getU32(r))
	if r.err != nil || n == 0 {
		return nil
	}
	if n > r.remaining()/8 {
		r.err = errors.New("short read")
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(r.buf[r.off+8*i:])
	}
	r.off += 8 * n
	return vs
}

func getString(r *byteReader) string {
	n := int(getU32(r))
	if r.err != nil || n == 0 {
		return ""
	}
	if n > r.remaining() {
		r.err = errors.New("short read")
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}
