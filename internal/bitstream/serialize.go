package bitstream

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fabric"
)

// WriteJSON serializes the bitstream. The format is a stable, versioned
// JSON document — the repository's equivalent of a configuration file on
// disk, letting tools compile once and managers load later.
func (b *Bitstream) WriteJSON(w io.Writer) error {
	doc := jsonDoc{Version: formatVersion, Bitstream: b}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// ReadJSON deserializes and validates a bitstream written by WriteJSON.
//
//vfpgavet:ignore testonly -- the on-disk format (DESIGN S21) that make fuzz-smoke fuzzes
func ReadJSON(r io.Reader) (*Bitstream, error) {
	var doc jsonDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("bitstream: decode: %w", err)
	}
	if doc.Version != formatVersion {
		return nil, fmt.Errorf("bitstream: unsupported format version %d (want %d)", doc.Version, formatVersion)
	}
	if doc.Bitstream == nil {
		return nil, fmt.Errorf("bitstream: empty document")
	}
	if err := doc.Bitstream.Validate(); err != nil {
		return nil, err
	}
	return doc.Bitstream, nil
}

const formatVersion = 1

type jsonDoc struct {
	Version   int        `json:"version"`
	Bitstream *Bitstream `json:"bitstream"`
}

// Validate checks the structural rules a loader depends on, and is the
// one statement of them: a positive footprint, every cell inside the
// region and written once, FFCells equal to the registered cells, every
// source legal, every in-region source reading a cell the bitstream
// writes, and every output driven. A bitstream that keeps them never
// writes or reads outside its region wherever it is downloaded, and its
// pages cover its cells exactly once. It is called by ReadJSON and by
// lint's bitstream-bounds pass, and is exported for callers that
// construct or mutate bitstreams programmatically.
func (b *Bitstream) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("bitstream: missing name")
	}
	if b.W <= 0 || b.H <= 0 {
		return fmt.Errorf("bitstream %s: non-positive footprint %dx%d", b.Name, b.W, b.H)
	}
	if b.W > fabric.MaxDim || b.H > fabric.MaxDim {
		return fmt.Errorf("bitstream %s: footprint %dx%d beyond the representable %d", b.Name, b.W, b.H, fabric.MaxDim)
	}
	if b.NumIn < 0 || b.NumOut < 0 {
		return fmt.Errorf("bitstream %s: negative port counts", b.Name)
	}
	if b.NumIn > fabric.MaxDim {
		return fmt.Errorf("bitstream %s: %d input ports beyond the representable %d", b.Name, b.NumIn, fabric.MaxDim)
	}
	if len(b.OutDrivers) != b.NumOut {
		return fmt.Errorf("bitstream %s: %d out drivers for %d outputs", b.Name, len(b.OutDrivers), b.NumOut)
	}
	ffs := 0
	seen := make(map[[2]int16]bool, len(b.Cells))
	for i := range b.Cells {
		cw := &b.Cells[i]
		if cw.X < 0 || int(cw.X) >= b.W || cw.Y < 0 || int(cw.Y) >= b.H {
			return fmt.Errorf("bitstream %s: cell %d at (%d,%d) outside %dx%d", b.Name, i, cw.X, cw.Y, b.W, b.H)
		}
		at := [2]int16{cw.X, cw.Y}
		if seen[at] {
			return fmt.Errorf("bitstream %s: two cells at (%d,%d)", b.Name, cw.X, cw.Y)
		}
		seen[at] = true
		if cw.UseFF {
			ffs++
		}
	}
	if ffs != b.FFCells {
		return fmt.Errorf("bitstream %s: FFCells %d but %d registered cells", b.Name, b.FFCells, ffs)
	}
	for i := range b.Cells {
		for k, src := range b.Cells[i].Inputs {
			if err := b.checkSrc(src, seen); err != nil {
				return fmt.Errorf("bitstream %s: cell %d input %d: %w", b.Name, i, k, err)
			}
		}
	}
	for o, src := range b.OutDrivers {
		if src.Kind == SrcNone {
			return fmt.Errorf("bitstream %s: output %d has no driver", b.Name, o)
		}
		if err := b.checkSrc(src, seen); err != nil {
			return fmt.Errorf("bitstream %s: output %d: %w", b.Name, o, err)
		}
	}
	if b.Delay < 0 {
		return fmt.Errorf("bitstream %s: negative delay", b.Name)
	}
	return nil
}

// checkSrc checks one source against the region and the set of cells
// the bitstream writes: a read of an unwritten cell would see whatever a
// neighbour left there once the bitstream is relocated beside it.
func (b *Bitstream) checkSrc(s Src, written map[[2]int16]bool) error {
	switch s.Kind {
	case SrcNone, SrcConst0, SrcConst1:
		return nil
	case SrcRel:
		if s.DX < 0 || int(s.DX) >= b.W || s.DY < 0 || int(s.DY) >= b.H {
			return fmt.Errorf("relative source (%d,%d) outside %dx%d", s.DX, s.DY, b.W, b.H)
		}
		if !written[[2]int16{s.DX, s.DY}] {
			return fmt.Errorf("relative source (%d,%d) reads a cell the bitstream does not write", s.DX, s.DY)
		}
		return nil
	case SrcPort:
		if s.Port < 0 || int(s.Port) >= b.NumIn {
			return fmt.Errorf("port source %d outside %d inputs", s.Port, b.NumIn)
		}
		return nil
	}
	return fmt.Errorf("unknown source kind %d", s.Kind)
}
