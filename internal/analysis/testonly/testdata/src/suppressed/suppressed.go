// Package suppressed keeps a reference model that other packages' tests
// share: the annotation keeps a declaration, an annotated type keeps its
// methods, and what they reference is kept with them.
package suppressed

// Oracle is the reference model.
//
//vfpgavet:ignore testonly -- a reference model several packages' tests share
type Oracle struct{ n int }

// NewOracle constructs it.
//
//vfpgavet:ignore testonly -- constructs the reference model
func NewOracle() *Oracle { return &Oracle{n: table()} }

// Eval is kept with its type.
func (o *Oracle) Eval() int { return o.n + table() }

func table() int { return 1 }

// The annotation names one analyzer; another's does not keep Stray.
//
//vfpgavet:ignore mapiter -- not this analyzer
func Stray() {} // want `Stray is never used`
