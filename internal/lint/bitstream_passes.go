package lint

// passBitstreamBounds verifies that a relocatable bitstream is
// self-contained inside its claimed W x H region and — when a device
// geometry is supplied — that the region and port count fit the device.
// The region rules are bitstream.Validate's, stated there once; a
// bitstream that breaks one yields one error naming the first it breaks.
// They are exactly the properties that make a bitstream safe to download
// at any origin (the paper's relocatable partitions) and to split into
// pages that never write outside the region.
func passBitstreamBounds(t *Target, r *Reporter) {
	b := t.Bitstream
	if b == nil {
		return
	}
	if err := b.Validate(); err != nil {
		r.Errorf(b.Name, "%v", err)
	}
	if g := t.Geometry; g != nil {
		if b.W > g.Cols || b.H > g.Rows {
			r.Errorf(b.Name+": region", "%dx%d region exceeds device %v", b.W, b.H, *g)
		}
		if want := b.NumIn + b.NumOut; want > g.NumPins() {
			r.Errorf(b.Name+": ports", "%d ports can never bind to %d device pins without multiplexing", want, g.NumPins())
		}
	}
}
