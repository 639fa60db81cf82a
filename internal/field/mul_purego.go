//go:build purego || !amd64

package field

// useADX is always false here: this build has no assembly, and Mul,
// Square and fromMont run the Go code. The variable exists so tests that
// switch paths compile in every build.
var useADX = false

func mul(z, x, y *Element) { mulGo(z, x, y) }

func square(z, x *Element) { squareGo(z, x) }

func redc(z *Element) { redcGo(z) }
