// Package a is the reachability check's fixture: each identifier's
// comment says whether the check must flag it.
package a

// Used is called by the module's main package: not flagged.
func Used() { helper() }

// helper is called by Used: not flagged.
func helper() {}

// unused has no caller at all: flagged.
func unused() {}

// testOnly is called only by a test: flagged.
func testOnly() {}

// TestOnly is called only by a test: flagged.
func TestOnly() {}

// Unused has no caller at all: flagged.
func Unused() {}

// BySecond is called only by the second module: not flagged.
func BySecond() {}

// Shape is returned by NewShape: not flagged.
type Shape struct{}

// NewShape is called by main: not flagged.
func NewShape() Shape { return Shape{} }

// String is reached only through fmt.Stringer: not flagged.
func (Shape) String() string { return "shape" }

// Area satisfies no interface and has no caller: flagged.
func (Shape) Area() int { return 0 }

// sizer is the parameter type of Measure: not flagged.
type sizer interface{ size() int }

// Measure is called by main: not flagged.
func Measure(s sizer) int { return s.size() }

// size is reached only through sizer: not flagged.
func (Shape) size() int { return 1 }

// Kept has no caller but says why it stays: not flagged.
//
//doclint:keep the fixture's reason
func Kept() {}

// KeptBare has no caller and a keep without a reason: flagged, and the
// directive is reported too.
//
//doclint:keep
func KeptBare() {}
