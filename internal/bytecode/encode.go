package bytecode

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/lang/token"
	"repro/internal/lattice"
)

// Binary serialization of compiled programs, so bytecode can be built
// once and shipped/executed separately (timingc compile -o, then
// timingc exec). The format is a small tagged container:
//
//	magic "TCBC" | version u8 (2) | lattice name | mitigates uvarint
//	scalars: count + (name, offset uvarint) pairs
//	arrays: count + (name, size uvarint, offset uvarint) triples
//	code: count + (op u8, A varint, B varint) triples; SETLBL
//	      additionally carries C varint, the AST node ID
//
// Strings are uvarint-length-prefixed UTF-8. Labels inside SETLBL and
// MITENTER operands are lattice element IDs; Decode therefore needs the
// same lattice, which is recorded by name and validated. The data
// offsets and SETLBL node IDs place every access where sem/full makes
// it, so a decoded program runs with the semantics' timing. Version 1
// images, which lack both, are rejected.

const (
	encodeMagic   = "TCBC"
	encodeVersion = 2
	// maxArrayElems bounds a decoded image's array elements in total
	// (the largest program in the repository declares 1,280).
	maxArrayElems = 1 << 20
)

// Encode writes the program to w. The program must carry its data
// offsets, as every program from Compile or Decode does.
func (p *Program) Encode(w io.Writer) error {
	if !p.hasOffsets() {
		return fmt.Errorf("bytecode: encoding a program without data offsets")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(encodeMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(encodeVersion); err != nil {
		return err
	}
	writeString := func(s string) {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], uint64(len(s)))
		bw.Write(buf[:n])
		bw.WriteString(s)
	}
	writeUvarint := func(v uint64) {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	writeVarint := func(v int64) {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], v)
		bw.Write(buf[:n])
	}
	writeString(p.Lat.Name())
	writeUvarint(uint64(p.NumMitigates))
	writeUvarint(uint64(len(p.ScalarNames)))
	for i, s := range p.ScalarNames {
		writeString(s)
		writeUvarint(p.ScalarOffsets[i])
	}
	writeUvarint(uint64(len(p.ArrayNames)))
	for i, s := range p.ArrayNames {
		writeString(s)
		writeUvarint(uint64(p.ArraySizes[i]))
		writeUvarint(p.ArrayOffsets[i])
	}
	writeUvarint(uint64(len(p.Code)))
	for _, ins := range p.Code {
		bw.WriteByte(byte(ins.Op))
		writeVarint(ins.A)
		writeVarint(ins.B)
		if ins.Op == OpSetLbl {
			writeVarint(ins.C)
		}
	}
	return bw.Flush()
}

// Decode reads a program from r. The caller supplies the lattice the
// program was compiled against; its name must match the recorded one.
// The program is validated and linked to its register form, so an
// image that decodes without error runs on the VM without further
// checks.
func Decode(r io.Reader, lat lattice.Lattice) (*Program, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(encodeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("bytecode: reading magic: %w", err)
	}
	if string(magic) != encodeMagic {
		return nil, fmt.Errorf("bytecode: bad magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != encodeVersion {
		return nil, fmt.Errorf("bytecode: unsupported version %d", ver)
	}
	readString := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("bytecode: string length %d too large", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	latName, err := readString()
	if err != nil {
		return nil, err
	}
	if latName != lat.Name() {
		return nil, fmt.Errorf("bytecode: compiled for lattice %q, decoding with %q", latName, lat.Name())
	}
	p := &Program{Lat: lat}
	mits, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	p.NumMitigates = int(mits)
	nScalars, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nScalars > 1<<20 {
		return nil, fmt.Errorf("bytecode: scalar count %d too large", nScalars)
	}
	for i := uint64(0); i < nScalars; i++ {
		s, err := readString()
		if err != nil {
			return nil, err
		}
		off, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		p.ScalarNames = append(p.ScalarNames, s)
		p.ScalarOffsets = append(p.ScalarOffsets, off)
	}
	nArrays, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nArrays > 1<<20 {
		return nil, fmt.Errorf("bytecode: array count %d too large", nArrays)
	}
	var elems uint64
	for i := uint64(0); i < nArrays; i++ {
		s, err := readString()
		if err != nil {
			return nil, err
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if size == 0 || size > 1<<30 {
			return nil, fmt.Errorf("bytecode: array %q size %d out of range", s, size)
		}
		// Linking allocates per element, so bound the image's total.
		if elems += size; elems > maxArrayElems {
			return nil, fmt.Errorf("bytecode: arrays total more than %d elements", maxArrayElems)
		}
		off, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		p.ArrayNames = append(p.ArrayNames, s)
		p.ArraySizes = append(p.ArraySizes, int64(size))
		p.ArrayOffsets = append(p.ArrayOffsets, off)
	}
	nCode, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nCode > 1<<24 {
		return nil, fmt.Errorf("bytecode: code length %d too large", nCode)
	}
	for i := uint64(0); i < nCode; i++ {
		op, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		a, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		b, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		var c int64
		if Op(op) == OpSetLbl {
			c, err = binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
		}
		p.Code = append(p.Code, Instr{Op: Op(op), A: a, B: b, C: c})
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := link(p); err != nil {
		return nil, err
	}
	return p, nil
}

// validate performs structural checks on a decoded program so a
// corrupted file fails fast instead of panicking mid-execution.
func (p *Program) validate() error {
	n := int64(len(p.Code))
	levels := int64(p.Lat.Size())
	for i, ins := range p.Code {
		switch ins.Op {
		case OpJmp, OpJz:
			if ins.A < 0 || ins.A > n {
				return fmt.Errorf("bytecode: instr %d: jump target %d out of range", i, ins.A)
			}
		case OpLoad, OpStore:
			if ins.A < 0 || ins.A >= int64(len(p.ScalarNames)) {
				return fmt.Errorf("bytecode: instr %d: scalar %d out of range", i, ins.A)
			}
		case OpLoadIdx, OpStoreIdx:
			if ins.A < 0 || ins.A >= int64(len(p.ArrayNames)) {
				return fmt.Errorf("bytecode: instr %d: array %d out of range", i, ins.A)
			}
		case OpSetLbl:
			if ins.A < 0 || ins.A >= levels || ins.B < 0 || ins.B >= levels {
				return fmt.Errorf("bytecode: instr %d: label id out of range", i)
			}
			if ins.C < 0 {
				return fmt.Errorf("bytecode: instr %d: negative node id %d", i, ins.C)
			}
		case OpMitEnter:
			if ins.B < 0 || ins.B >= levels {
				return fmt.Errorf("bytecode: instr %d: mitigation level out of range", i)
			}
		case OpBinop:
			if !token.Kind(ins.A).IsBinaryOp() {
				return fmt.Errorf("bytecode: instr %d: %d is not a binary operator", i, ins.A)
			}
		}
	}
	return nil
}
