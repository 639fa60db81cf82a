//go:build !purego

package encoder

import "batchzk/internal/field"

// useADX selects the assembly rowInto of row_amd64.s. It follows field's
// CPUID check (MULX needs BMI2, the two carry chains ADX), so the process
// probes the CPU once; without both, rowInto jumps to rowIntoGo. The
// tests clear it to run the Go path through the same entry point.
var useADX = field.HasADX()

// rowInto sets *out to the inner product of one sparse row with x.
//
//go:noescape
func rowInto(out *field.Element, row []Entry, x []field.Element)
