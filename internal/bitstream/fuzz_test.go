package bitstream_test

// Fuzz target for the on-disk bitstream format: ReadJSON on arbitrary
// bytes must never panic and must only hand back bitstreams that pass
// Validate — anything it accepts has to survive a Write/Read round trip
// byte-identically, since managers trust loaded bitstreams blindly.

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
)

// fuzzSeedBitstream is a minimal valid two-cell design: a registered
// cell fed by the input port, chained into the output driver.
func fuzzSeedBitstream() *bitstream.Bitstream {
	return &bitstream.Bitstream{
		Name: "seed", W: 2, H: 1, NumIn: 1, NumOut: 1,
		Cells: []bitstream.CellWrite{
			{X: 0, Y: 0, UseFF: true, Inputs: [fabric.LUTInputs]bitstream.Src{{Kind: bitstream.SrcPort, Port: 0}}},
			{X: 1, Y: 0, Inputs: [fabric.LUTInputs]bitstream.Src{{Kind: bitstream.SrcRel, DX: 0, DY: 0}}},
		},
		OutDrivers: []bitstream.Src{{Kind: bitstream.SrcRel, DX: 1, DY: 0}},
		FFCells:    1,
	}
}

func FuzzBitstreamParse(f *testing.F) {
	var valid bytes.Buffer
	if err := fuzzSeedBitstream().WriteJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, seed := range []string{
		`{"version":1,"bitstream":null}`,
		`{"version":2,"bitstream":{}}`,
		`{"version":1,"bitstream":{"Name":"x","W":1,"H":1}}`,
		`{"version":1,"bitstream":{"Name":"x","W":-1,"H":1}}`,
		`{"version":1,"bitstream":{"Name":"x","W":1,"H":1,"Cells":[{"X":5,"Y":0}]}}`,
		`garbage`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := bitstream.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs just must not panic
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("ReadJSON accepted an invalid bitstream: %v", err)
		}
		var first bytes.Buffer
		if err := b.WriteJSON(&first); err != nil {
			t.Fatalf("accepted bitstream failed to write: %v", err)
		}
		again, err := bitstream.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written form rejected on re-read: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialized form is not a fixpoint:\n first %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}

// TestCorpusOutOfRangeRejected reads the corpus documents that are the
// valid two-cell seed with one coordinate, offset, port or dimension
// pushed out of range — 2^15, 2^16+1, negative — and requires every one
// to fail to parse. The 2^16 ones are the seed's own value plus a multiple
// of 2^16: decoded wide and narrowed afterwards they would wrap onto the
// legal cell and be accepted. The rule-* documents are the seed with all
// values in range but one of Validate's other rules broken: a cell input
// reading a cell the bitstream never writes, an undriven output.
func TestCorpusOutOfRangeRejected(t *testing.T) {
	var valid bytes.Buffer
	if err := fuzzSeedBitstream().WriteJSON(&valid); err != nil {
		t.Fatal(err)
	}
	if _, err := bitstream.ReadJSON(&valid); err != nil {
		t.Fatalf("the seed the corpus documents are cut from does not parse: %v", err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBitstreamParse")
	var files []string
	for _, pattern := range []string{"unrepresentable-*", "negative-*", "rule-*"} {
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 12 {
		t.Fatalf("found %d rule-breaking corpus documents under %s, want at least 12", len(files), dir)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(\"...\")\n"
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: not a one-value corpus file: %v", path, err)
		}
		if b, err := bitstream.ReadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s parsed as %v; it breaks a rule Validate states", filepath.Base(path), b)
		}
	}
}
