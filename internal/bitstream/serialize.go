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

// Validate checks the structural invariants a loader depends on: a
// positive footprint, every cell inside the region, every source legal.
// It is called by ReadJSON and is exported for callers that construct or
// mutate bitstreams programmatically.
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
		for k, src := range cw.Inputs {
			if err := b.checkSrc(src); err != nil {
				return fmt.Errorf("bitstream %s: cell %d input %d: %w", b.Name, i, k, err)
			}
		}
	}
	if ffs != b.FFCells {
		return fmt.Errorf("bitstream %s: FFCells %d but %d registered cells", b.Name, b.FFCells, ffs)
	}
	for o, src := range b.OutDrivers {
		if err := b.checkSrc(src); err != nil {
			return fmt.Errorf("bitstream %s: output %d: %w", b.Name, o, err)
		}
	}
	if b.Delay < 0 {
		return fmt.Errorf("bitstream %s: negative delay", b.Name)
	}
	return nil
}

func (b *Bitstream) checkSrc(s Src) error {
	switch s.Kind {
	case SrcNone, SrcConst0, SrcConst1:
		return nil
	case SrcRel:
		if s.DX < 0 || int(s.DX) >= b.W || s.DY < 0 || int(s.DY) >= b.H {
			return fmt.Errorf("relative source (%d,%d) outside %dx%d", s.DX, s.DY, b.W, b.H)
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
