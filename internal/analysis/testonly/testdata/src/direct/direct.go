// Package direct declares one of each kind of name its own _test.go file
// alone uses, beside names the package's init reaches (product code) and
// names nothing uses.
package direct

func init() { _ = Live() }

// Live is reached from init, and so are the names it references.
func Live() int { return helper() + int(ModeOn) }

func helper() int { return 1 }

func OnlyTested() int { return 2 } // want `OnlyTested is used only by tests: move it into a _test.go file or delete it`

const Limit = 3 // want `Limit is used only by tests`

var Table = []int{1, 2} // want `Table is used only by tests`

type Shape struct{ w, h int } // want `Shape is used only by tests`

func (s Shape) Area() int { return s.w * s.h } // want `Shape.Area is used only by tests`

// Unused is exported and referenced nowhere.
func Unused() {} // want `Unused is never used: delete it`

// unusedHelper is dead, not test-only: the compiler's business.
func unusedHelper() {}

func testedHelper() int { return 4 } // want `testedHelper is used only by tests`

// Mode is an enumeration: ModeOff, which only tests name, lives with
// ModeOn, which init reaches; deleting it would renumber ModeOn.
type Mode int

const (
	ModeOff Mode = iota
	ModeOn
)
