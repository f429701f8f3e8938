package pattern

// Primitive tap masks for the linear feedback shift registers of self
// tests (the MISR of package bist), for common widths: each gives a
// maximal-length sequence.
// For the recurrence a_{t+n} = XOR of a_{t+k} over tap exponents k, the
// mask has bit k set for every exponent k < n of the primitive
// polynomial (bit 0 comes from the +1 term), so the feedback always
// depends on the outgoing bit and the update is a permutation.
var primitiveTaps = map[uint]uint64{
	4:  0x3,      // x^4 + x + 1
	8:  0x71,     // x^8 + x^6 + x^5 + x^4 + 1
	16: 0xA011,   // x^16 + x^15 + x^13 + x^4 + 1
	24: 0xC20001, // x^24 + x^23 + x^22 + x^17 + 1
	32: 0x400007, // x^32 + x^22 + x^2 + x + 1
}

// Taps returns the primitive tap mask for a supported width.
func Taps(width uint) (uint64, bool) {
	t, ok := primitiveTaps[width]
	return t, ok
}
