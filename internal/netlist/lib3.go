package netlist

import "fmt"

// Third library tier: wide-datapath arithmetic with classic shift-and-
// subtract structure. These are the largest combinational circuits in the
// library and the natural stress cases for segmentation and paging.

// subIfGE conditionally subtracts d from r when r >= d: it returns the
// selected result and the "subtracted" flag. Both buses must have equal
// width.
func subIfGE(b *Builder, r, d []NodeID) (out []NodeID, did NodeID) {
	notD := make([]NodeID, len(d))
	for i := range d {
		notD[i] = b.Not(d[i])
	}
	diff, carry := addBits(b, r, notD, b.Const(true)) // r - d; carry==1 iff r >= d
	return muxBus(b, carry, r, diff), carry
}

// Divider returns a width-bit unsigned restoring divider: inputs n
// (dividend) and d (divisor); outputs q (quotient) and r (remainder).
// Division by zero yields q = all ones and r = n, the conventional
// all-comparisons-succeed result of the restoring array.
func Divider(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("div%d", width))
	n := b.InputBus("n", width)
	d := b.InputBus("d", width)
	zero := b.Const(false)

	// Remainder register, one bit wider than the divisor to absorb the
	// shifted-in bit before the trial subtract.
	rem := make([]NodeID, width+1)
	for i := range rem {
		rem[i] = zero
	}
	dExt := make([]NodeID, width+1)
	copy(dExt, d)
	dExt[width] = zero

	q := make([]NodeID, width)
	for i := width - 1; i >= 0; i-- {
		// rem = (rem << 1) | n[i]
		shifted := make([]NodeID, width+1)
		shifted[0] = n[i]
		copy(shifted[1:], rem[:width])
		var did NodeID
		rem, did = subIfGE(b, shifted, dExt)
		q[i] = did
	}
	b.OutputBus("q", q)
	b.OutputBus("r", rem[:width])
	return b.MustBuild()
}

// BinToBCD returns a combinational double-dabble converter from an 8-bit
// binary input to three BCD digits (ones, tens, hundreds).
func BinToBCD8() *Netlist {
	b := NewBuilder("bintobcd8")
	in := b.InputBus("bin", 8)
	zero := b.Const(false)

	// 12 BCD bits (3 digits), shifted in MSB-first with the add-3 fixup.
	bcd := make([]NodeID, 12)
	for i := range bcd {
		bcd[i] = zero
	}
	three := []NodeID{b.Const(true), b.Const(true), zero, zero}
	for i := 7; i >= 0; i-- {
		// Fix up each digit >= 5 by adding 3.
		for dig := 0; dig < 3; dig++ {
			nib := bcd[dig*4 : dig*4+4]
			// ge5 = nib >= 5 = b3 | (b2 & (b1 | b0))
			ge5 := b.Or(nib[3], b.And(nib[2], b.Or(nib[1], nib[0])))
			sum, _ := addBits(b, nib, three, zero)
			for k := 0; k < 4; k++ {
				bcd[dig*4+k] = b.Mux(ge5, nib[k], sum[k])
			}
		}
		// Shift left by one, shifting in the next binary bit.
		next := make([]NodeID, 12)
		next[0] = in[i]
		copy(next[1:], bcd[:11])
		bcd = next
	}
	b.OutputBus("ones", bcd[0:4])
	b.OutputBus("tens", bcd[4:8])
	b.OutputBus("hundreds", bcd[8:12])
	return b.MustBuild()
}
