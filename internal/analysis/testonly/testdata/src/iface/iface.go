// Package iface holds methods that satisfy an interface: they are called
// through it, so a reference scan cannot see their callers, and they are
// out of scope — never flagged, and what they use is kept.
package iface

import "fmt"

// Runner is the package's own interface; the blank declaration below is
// product code.
type Runner interface {
	Run() error
	Name() string
}

var _ Runner = wrapper{}

// base.Run satisfies Runner only through wrapper, which embeds it.
type base struct{}

func (base) Run() error { return nil }

type wrapper struct{ base }

func (wrapper) Name() string { return label }

var label = "w"

// Kind satisfies fmt.Stringer; the type itself only tests use.
type Kind int // want `Kind is used only by tests`

func (k Kind) String() string { return fmt.Sprint(names[k]) }

var names = []string{"zero", "one"}

// failure satisfies error.
type failure struct{}

func (failure) Error() string { return "failed" }

// Extra satisfies nothing and nothing calls it.
func (failure) Extra() {} // want `failure.Extra is never used`
