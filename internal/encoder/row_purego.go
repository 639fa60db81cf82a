//go:build purego || !amd64

package encoder

import "batchzk/internal/field"

// useADX is always false here: this build has no assembly. The variable
// exists so tests that switch paths compile in every build.
var useADX = false

// rowInto sets *out to the inner product of one sparse row with x.
func rowInto(out *field.Element, row []Entry, x []field.Element) { rowIntoGo(out, row, x) }
