//go:build !purego

package field

// useADX selects the MULX/ADCX/ADOX assembly of mul_amd64.s for Mul,
// Square and fromMont. It is set once, from CPUID leaf 7: MULX needs
// BMI2 and the two carry chains need ADX. Without both, each assembly
// entry point jumps to its Go counterpart (mulGo, squareGo, redcGo),
// which is also the oracle the differential tests compare against; the
// tests clear useADX to run the Go path through the same entry points.
var useADX = hasADX()

func hasADX() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// mul sets z = x·y, the Montgomery product; z may alias x or y.
//
//go:noescape
func mul(z, x, y *Element)

// square sets z = x·x.
//
//go:noescape
func square(z, x *Element)

// redc sets z = z·R⁻¹, the Montgomery reduction of z with no product.
//
//go:noescape
func redc(z *Element)
