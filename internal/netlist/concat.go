package netlist

import "fmt"

// Concat builds a netlist containing an independent copy of each input
// netlist side by side, with port names prefixed "cI_" (I = position).
// It is the "merge all circuits into only one" construction from the
// paper's §3: the monolithic alternative to dynamic loading, which needs
// the area of all parts together.
func Concat(name string, nls ...*Netlist) (*Netlist, error) {
	var nodes, edges, ins, outs, dffs int
	for _, src := range nls {
		nodes += len(src.Nodes)
		edges += src.numEdges()
		ins, outs, dffs = ins+len(src.Inputs), outs+len(src.Outputs), dffs+len(src.DFFs)
	}
	out := &Netlist{
		Name:    name,
		Nodes:   make([]Node, 0, nodes),
		Inputs:  make([]NodeID, 0, ins),
		Outputs: make([]NodeID, 0, outs),
		DFFs:    make([]NodeID, 0, dffs),
	}
	fanins := make([]NodeID, edges) // every copy's fanins; each node a capped window
	for i, src := range nls {
		offset := NodeID(len(out.Nodes))
		prefix := fmt.Sprintf("c%d_", i)
		for _, nd := range src.Nodes {
			cp := Node{
				ID:   nd.ID + offset,
				Kind: nd.Kind,
				Name: nd.Name,
				Init: nd.Init,
			}
			if nd.Name != "" && (nd.Kind == KindInput || nd.Kind == KindOutput) {
				cp.Name = prefix + nd.Name
			}
			if n := len(nd.Fanin); n > 0 {
				cp.Fanin, fanins = fanins[:n:n], fanins[n:]
				for k, f := range nd.Fanin {
					cp.Fanin[k] = f + offset
				}
			}
			out.Nodes = append(out.Nodes, cp)
		}
		for _, id := range src.Inputs {
			out.Inputs = append(out.Inputs, id+offset)
		}
		for _, id := range src.Outputs {
			out.Outputs = append(out.Outputs, id+offset)
		}
		for _, id := range src.DFFs {
			out.DFFs = append(out.DFFs, id+offset)
		}
	}
	if err := out.check(new(checkScratch)); err != nil {
		return nil, err
	}
	return out, nil
}
