package tensor

import "math"

// IEEE 754 binary16 conversion. The FP16 baseline of the paper is modelled
// by rounding float64 values through half precision after each GEMM; the
// conversions here implement round-to-nearest-even with correct handling of
// subnormals, overflow to infinity, and NaN.

// F16Bits converts a float64 to the nearest IEEE binary16 bit pattern.
func F16Bits(x float64) uint16 {
	f := float32(x)
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32((b >> 23) & 0xff)
	man := b & 0x7fffff

	if exp == 0xff { // Inf or NaN
		if man != 0 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7c00
	}

	e := exp - 127 + 15
	switch {
	case e >= 0x1f: // overflow → Inf
		return sign | 0x7c00
	case e <= 0: // subnormal half (or zero)
		if e < -10 {
			return sign // underflow to zero
		}
		man |= 0x800000 // implicit leading 1
		shift := uint32(14 - e)
		v := man >> shift
		half := uint32(1) << (shift - 1)
		rem := man & (half<<1 - 1)
		if rem > half || (rem == half && v&1 == 1) {
			v++
		}
		return sign | uint16(v)
	default:
		v := uint16(e<<10) | uint16(man>>13)
		rem := man & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && v&1 == 1) {
			v++ // carry may roll into the exponent, which yields Inf correctly
		}
		return sign | v
	}
}

// F16FromBits converts an IEEE binary16 bit pattern to float64. Every
// binary16 value is exactly representable in binary64, so the conversion
// assembles the float64 bit pattern directly — F16RoundInPlace runs it on
// every GEMM operand and output of the FP16 baseline, where a math.Pow per
// element would dominate the arithmetic.
func F16FromBits(h uint16) float64 {
	sign := uint64(h&0x8000) << 48
	exp := uint64(h>>10) & 0x1f
	man := uint64(h & 0x3ff)
	switch exp {
	case 0:
		// Subnormal half: man × 2⁻²⁴, negative zero preserved.
		v := float64(man) * 0x1p-24
		return math.Float64frombits(sign | math.Float64bits(v))
	case 0x1f:
		if man != 0 {
			return math.NaN()
		}
		return math.Float64frombits(sign | 0x7ff0000000000000) // ±Inf
	default:
		// Normal half: rebias the exponent (15 → 1023) and left-align the
		// 10-bit mantissa in the 52-bit field.
		return math.Float64frombits(sign | (exp-15+1023)<<52 | man<<42)
	}
}

// F16Round rounds x to the nearest representable half-precision value.
func F16Round(x float64) float64 { return F16FromBits(F16Bits(x)) }

// F16RoundInPlace rounds every element of m through half precision.
func F16RoundInPlace(m *Matrix) {
	for i, v := range m.Data {
		m.Data[i] = F16Round(v)
	}
}
