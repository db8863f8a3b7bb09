package netlist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const segmentDigestsPath = "testdata/segment_digests.json"

// segmentDigest pins the stages Segment cuts one library circuit into.
type segmentDigest struct {
	Circuit string `json:"circuit"`
	K       int    `json:"k"`
	Stages  int    `json:"stages"`
	SHA256  string `json:"stages_sha256"`
}

// renderStages writes everything a stage is made of: its name, every
// node's kind, fanins, name and init value in id order, and its port
// lists in port order.
func renderStages(h hash.Hash, stages []*Netlist) {
	for _, st := range stages {
		fmt.Fprintf(h, "stage %q nodes %d\n", st.Name, len(st.Nodes))
		for _, nd := range st.Nodes {
			fmt.Fprintf(h, " %d %v %v %q %v\n", nd.ID, nd.Kind, nd.Fanin, nd.Name, nd.Init)
		}
		fmt.Fprintf(h, "in %v %q\nout %v %q\n", st.Inputs, st.InputNames(), st.Outputs, st.OutputNames())
	}
}

// combinationalLibrary returns the library's combinational circuits in
// name order.
func combinationalLibrary() []string {
	var names []string
	for name := range Registry() {
		if !MustLookup(name).IsSequential() {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// TestSegmentDigests holds Segment to the stages the committed digests
// were rendered from (before the per-producer consumer maps went): every
// combinational library circuit at k = 1…6, node for node and port for
// port, and each cut still evaluates like the whole circuit. Regenerate
// with -update only when the segmentation is meant to change.
func TestSegmentDigests(t *testing.T) {
	var got []segmentDigest
	for _, name := range combinationalLibrary() {
		nl := MustLookup(name)
		for k := 1; k <= 6; k++ {
			stages := checkSegmented(t, nl, k, uint64(k))
			h := sha256.New()
			renderStages(h, stages)
			got = append(got, segmentDigest{Circuit: name, K: k, Stages: len(stages), SHA256: hex.EncodeToString(h.Sum(nil))})
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(segmentDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []segmentDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("digests cover %d cuts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("segmentation diverged:\n got  %+v\n want %+v", got[i], want[i])
		}
	}
}
