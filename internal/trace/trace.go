// Package trace records and replays instruction traces in a compact
// binary format, so experiments can run from captured traces instead of
// live generators: the usual workflow for comparing many designs against
// byte-identical input, or for importing reference streams produced by an
// external tool.
//
// Format (little-endian):
//
//	magic   [4]byte  "TLC1"
//	count   uint64   number of records
//	records          one per instruction, variable length:
//	  flags byte     bit0 IsMem, bit1 IsStore, bit2 Dep, bit3 Mispredict
//	  block uvarint  present only when IsMem: delta-encoded block id
//	                 (zigzag delta from the previous memory block)
//
// Delta encoding keeps streaming workloads near one byte per memory
// reference.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tlc/internal/cpu"
	"tlc/internal/mem"
)

var magic = [4]byte{'T', 'L', 'C', '1'}

const (
	flagMem byte = 1 << iota
	flagStore
	flagDep
	flagMispredict
)

// Writer streams instructions to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	count uint64
	prev  uint64
	// countPos unsupported on plain writers: the count is written by
	// Close into a seekable writer, or via the two-pass Record helper.
	seeker io.WriteSeeker
	err    error
}

// NewWriter starts a trace on a seekable writer (a file): the record
// count is patched into the header on Close.
func NewWriter(w io.WriteSeeker) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriter(w), seeker: w}
	if _, err := tw.w.Write(magic[:]); err != nil {
		return nil, err
	}
	var zero [8]byte
	if _, err := tw.w.Write(zero[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Add appends one instruction.
func (t *Writer) Add(in cpu.Instr) {
	if t.err != nil {
		return
	}
	var flags byte
	if in.IsMem {
		flags |= flagMem
	}
	if in.IsStore {
		flags |= flagStore
	}
	if in.Dep {
		flags |= flagDep
	}
	if in.Mispredict {
		flags |= flagMispredict
	}
	if err := t.w.WriteByte(flags); err != nil {
		t.err = err
		return
	}
	if in.IsMem {
		delta := int64(uint64(in.Block)) - int64(t.prev)
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], delta)
		if _, err := t.w.Write(buf[:n]); err != nil {
			t.err = err
			return
		}
		t.prev = uint64(in.Block)
	}
	t.count++
}

// Count reports the number of instructions recorded so far.
func (t *Writer) Count() uint64 { return t.count }

// Close flushes the records and patches the count into the header.
func (t *Writer) Close() error {
	if t.err != nil {
		return t.err
	}
	if err := t.w.Flush(); err != nil {
		return err
	}
	if _, err := t.seeker.Seek(4, io.SeekStart); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], t.count)
	if _, err := t.seeker.Write(buf[:]); err != nil {
		return err
	}
	_, err := t.seeker.Seek(0, io.SeekEnd)
	return err
}

// captureBatch bounds one Capture fill.
const captureBatch = 4096

// Capture records n instructions from a stream into w and returns the
// count written. Instructions are read in NextBatch fills of a bounded
// buffer.
func Capture(w io.WriteSeeker, s cpu.Source, n uint64) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	buf := make([]cpu.Instr, min(n, captureBatch))
	for remaining := n; remaining > 0; {
		got := s.NextBatch(buf[:min(remaining, captureBatch)])
		if got <= 0 {
			panic("trace: capture stream made no progress")
		}
		for _, in := range buf[:got] {
			tw.Add(in)
		}
		remaining -= uint64(got)
	}
	if err := tw.Close(); err != nil {
		return 0, err
	}
	return tw.Count(), nil
}

// Reader replays a recorded trace as a cpu.Source. Reaching the end of
// the trace wraps around to the beginning, so a short captured loop can
// drive an arbitrarily long run (warm-up plus timing).
type Reader struct {
	records []cpu.Instr
	pos     int
}

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace")

// NewReader loads a full trace into memory.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadTrace, err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	count := binary.LittleEndian.Uint64(hdr[4:])
	records := make([]cpu.Instr, 0, count)
	var prev uint64
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at record %d", ErrBadTrace, i)
		}
		in := cpu.Instr{
			IsMem:      flags&flagMem != 0,
			IsStore:    flags&flagStore != 0,
			Dep:        flags&flagDep != 0,
			Mispredict: flags&flagMispredict != 0,
		}
		if flags&^(flagMem|flagStore|flagDep|flagMispredict) != 0 {
			return nil, fmt.Errorf("%w: unknown flags %#x at record %d", ErrBadTrace, flags, i)
		}
		if in.IsMem {
			delta, err := binary.ReadVarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: truncated block at record %d", ErrBadTrace, i)
			}
			prev = uint64(int64(prev) + delta)
			in.Block = mem.Block(prev)
		}
		records = append(records, in)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadTrace)
	}
	return &Reader{records: records}, nil
}

// Len reports the number of records in the trace.
func (r *Reader) Len() int { return len(r.records) }

// Next returns the next record, wrapping at the end of the trace: the
// scalar reference NextBatch and NextMems are tested against.
func (r *Reader) Next() cpu.Instr {
	in := r.records[r.pos]
	r.pos++
	if r.pos == len(r.records) {
		r.pos = 0
	}
	return in
}

// NextBatch implements cpu.Source: copy runs of records into buf,
// wrapping at the trace end, so batched delivery is a memcpy instead of one
// interface call per instruction.
func (r *Reader) NextBatch(buf []cpu.Instr) int {
	for filled := 0; filled < len(buf); {
		n := copy(buf[filled:], r.records[r.pos:])
		filled += n
		r.pos += n
		if r.pos == len(r.records) {
			r.pos = 0
		}
	}
	return len(buf)
}

// NextMems implements cpu.Source: scan up to maxInstr records, skipping
// non-memory instructions and materializing memory operations into buf. The
// replay position after the call is exactly where the same instructions
// delivered through Next would have left it.
func (r *Reader) NextMems(buf []cpu.MemRef, maxInstr uint64) (n int, consumed uint64) {
	for consumed < maxInstr && n < len(buf) {
		in := r.records[r.pos]
		r.pos++
		if r.pos == len(r.records) {
			r.pos = 0
		}
		consumed++
		if !in.IsMem {
			continue
		}
		buf[n] = cpu.MemRef{Block: in.Block, Store: in.IsStore}
		n++
	}
	return n, consumed
}

// Rewind restarts replay from the first record.
func (r *Reader) Rewind() { r.pos = 0 }

// Stats summarizes a trace for sanity checks and tooling.
type Stats struct {
	Instructions uint64
	MemOps       uint64
	Stores       uint64
	DepLoads     uint64
	Mispredicts  uint64
	UniqueBlocks int
}

// Summarize scans a reader's records.
func (r *Reader) Summarize() Stats {
	s := Stats{Instructions: uint64(len(r.records))}
	blocks := make(map[mem.Block]struct{})
	for _, in := range r.records {
		if in.Mispredict {
			s.Mispredicts++
		}
		if !in.IsMem {
			continue
		}
		s.MemOps++
		if in.IsStore {
			s.Stores++
		} else if in.Dep {
			s.DepLoads++
		}
		blocks[in.Block] = struct{}{}
	}
	s.UniqueBlocks = len(blocks)
	return s
}
