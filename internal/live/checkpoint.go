package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"tdb/internal/fault"
)

// ErrCorruptCheckpoint is the typed rejection for a checkpoint that
// cannot be trusted: a truncated or torn image (bad magic, short buffer,
// trailer hash mismatch) or a replay that fails to reproduce the
// checkpointed emission sequence. Restore never replays a silent prefix
// of a damaged log — it refuses with this error.
var ErrCorruptCheckpoint = errors.New("live: corrupt checkpoint")

// ckptMagic heads every serialized checkpoint image. Version 2 records the
// delta hash over relation.AppendKey encodings; a version-1 image (whose
// hash used the old rendered keys) is rejected as bad magic rather than
// failing later as a divergent replay.
const ckptMagic = "TDBCKPT2"

// Encode serializes the checkpoint: magic, length-prefixed query name,
// the four offset/hash fields, and an FNV-1a trailer over everything
// before it. The trailer is what turns a torn write into a detected
// ErrCorruptCheckpoint instead of a silently shorter replay.
func (cp *Checkpoint) Encode() []byte {
	name := []byte(cp.Query)
	out := make([]byte, 0, len(ckptMagic)+2+len(name)+4*8+8)
	out = append(out, ckptMagic...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(name)))
	out = append(out, name...)
	out = binary.LittleEndian.AppendUint64(out, uint64(cp.LeftRows))
	out = binary.LittleEndian.AppendUint64(out, uint64(cp.RightRows))
	out = binary.LittleEndian.AppendUint64(out, uint64(cp.Emitted))
	out = binary.LittleEndian.AppendUint64(out, cp.DeltaHash)
	f := fnv.New64a()
	_, _ = f.Write(out)
	return binary.LittleEndian.AppendUint64(out, f.Sum64())
}

// DecodeCheckpoint parses a serialized checkpoint image, rejecting any
// truncation or corruption with ErrCorruptCheckpoint.
func DecodeCheckpoint(buf []byte) (*Checkpoint, error) {
	if len(buf) < len(ckptMagic)+2 {
		return nil, fmt.Errorf("%w: image of %d bytes", ErrCorruptCheckpoint, len(buf))
	}
	if string(buf[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptCheckpoint)
	}
	n := int(binary.LittleEndian.Uint16(buf[len(ckptMagic):]))
	body := len(ckptMagic) + 2 + n + 4*8
	if len(buf) < body+8 {
		return nil, fmt.Errorf("%w: truncated image (%d of %d bytes)", ErrCorruptCheckpoint, len(buf), body+8)
	}
	f := fnv.New64a()
	_, _ = f.Write(buf[:body])
	if binary.LittleEndian.Uint64(buf[body:]) != f.Sum64() {
		return nil, fmt.Errorf("%w: trailer hash mismatch (torn write?)", ErrCorruptCheckpoint)
	}
	off := len(ckptMagic) + 2
	cp := &Checkpoint{Query: string(buf[off : off+n])}
	off += n
	cp.LeftRows = int64(binary.LittleEndian.Uint64(buf[off:]))
	cp.RightRows = int64(binary.LittleEndian.Uint64(buf[off+8:]))
	cp.Emitted = int64(binary.LittleEndian.Uint64(buf[off+16:]))
	cp.DeltaHash = binary.LittleEndian.Uint64(buf[off+24:])
	return cp, nil
}

// WriteTo serializes the checkpoint to w. The live/checkpoint-write
// failpoint can fail the write or tear it (persist only a prefix, as a
// crash mid-write would); a torn image is detected by DecodeCheckpoint.
func (cp *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	enc := cp.Encode()
	n, ferr := fault.Torn("live/checkpoint-write", len(enc))
	if ferr != nil {
		return 0, fmt.Errorf("live: write checkpoint %s: %w", cp.Query, ferr)
	}
	wn, err := w.Write(enc[:n])
	if err != nil {
		return int64(wn), fmt.Errorf("live: write checkpoint %s: %w", cp.Query, err)
	}
	return int64(wn), nil
}

// ReadCheckpoint deserializes a checkpoint from r, rejecting torn or
// truncated images with ErrCorruptCheckpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	if err := fault.Check("live/checkpoint-read"); err != nil {
		return nil, fmt.Errorf("live: read checkpoint: %w", err)
	}
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("live: read checkpoint: %w", err)
	}
	return DecodeCheckpoint(buf)
}
