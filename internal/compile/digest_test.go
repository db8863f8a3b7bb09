package compile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"

	"repro/internal/fabric"
	"repro/internal/netlist"
)

var update = flag.Bool("update", false, "rewrite golden files")

const stripDigestsPath = "testdata/strip_digests.json"

// stripDigest pins one strip compile: the serialized bitstream's hash plus
// the two scalars the managers and reports read off the artifact.
type stripDigest struct {
	Circuit     string `json:"circuit"`
	Rows        int    `json:"rows"`
	Seed        uint64 `json:"seed"`
	SHA256      string `json:"bitstream_sha256"`
	ClockPeriod int64  `json:"clock_period"`
	Wirelength  int    `json:"wirelength"`
}

func computeStripDigests(t *testing.T) []stripDigest {
	t.Helper()
	reg := netlist.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	tracks := fabric.DefaultGeometry().TracksPerChannel
	var out []stripDigest
	for _, name := range names {
		for _, rows := range []int{16, 24} {
			for _, seed := range []uint64{1, 2, 3} {
				c, err := CompileStrip(reg[name](), rows, tracks, Options{Seed: seed})
				if err != nil {
					t.Fatalf("%s rows=%d seed=%d: %v", name, rows, seed, err)
				}
				var buf bytes.Buffer
				if err := c.BS.WriteJSON(&buf); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				out = append(out, stripDigest{
					Circuit:     name,
					Rows:        rows,
					Seed:        seed,
					SHA256:      hex.EncodeToString(sum[:]),
					ClockPeriod: int64(c.ClockPeriod),
					Wirelength:  c.Wirelength,
				})
			}
		}
	}
	return out
}

// TestStripDigests holds every artifact of the strip flow to the bytes the
// committed digests were generated from: a change to the optimizer, mapper,
// placer, router or generator that moves any bitstream, clock period or
// wirelength fails here before it reaches a golden table. Regenerate with
// -update only when the flow's output is meant to change.
func TestStripDigests(t *testing.T) {
	got := computeStripDigests(t)
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stripDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(stripDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []stripDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("digests cover %d compiles, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("strip compile diverged:\n got  %+v\n want %+v", got[i], want[i])
		}
	}
}
