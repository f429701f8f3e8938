package widesim

// execAVX2 runs code over the value array of s with the assembly loop
// exec8AVX2 (see the package comment), which stops at each table gate
// and each opTablePin: Go evaluates the instruction with evalSlow and
// the loop resumes after it.
func execAVX2(s *Sim, code []instr, st *stream) {
	for {
		i := exec8AVX2(s.values, code, st.args)
		if i == len(code) {
			return
		}
		ins := &code[i]
		s.evalSlow(ins, st, &s.values[ins.out()])
		code = code[i+1:]
	}
}

// exec8 is the Go evaluation loop where the CPU lacks AVX2 (see the
// package comment), and the assembly loop's reference: it writes each
// gate's eight lanes as straight-line code.  Table gates and
// opTablePin take evalSlow.
func exec8(s *Sim, code []instr, st *stream) {
	v := s.values
	for i := range code {
		ins := &code[i]
		d := &v[ins.out()]
		switch ins.op() {
		case opBuf:
			*d = v[ins.a]
		case opNot:
			x := &v[ins.a]
			d[0] = ^x[0]
			d[1] = ^x[1]
			d[2] = ^x[2]
			d[3] = ^x[3]
			d[4] = ^x[4]
			d[5] = ^x[5]
			d[6] = ^x[6]
			d[7] = ^x[7]
		case opAnd2:
			x, y := &v[ins.a], &v[ins.b]
			d[0] = x[0] & y[0]
			d[1] = x[1] & y[1]
			d[2] = x[2] & y[2]
			d[3] = x[3] & y[3]
			d[4] = x[4] & y[4]
			d[5] = x[5] & y[5]
			d[6] = x[6] & y[6]
			d[7] = x[7] & y[7]
		case opNand2:
			x, y := &v[ins.a], &v[ins.b]
			d[0] = ^(x[0] & y[0])
			d[1] = ^(x[1] & y[1])
			d[2] = ^(x[2] & y[2])
			d[3] = ^(x[3] & y[3])
			d[4] = ^(x[4] & y[4])
			d[5] = ^(x[5] & y[5])
			d[6] = ^(x[6] & y[6])
			d[7] = ^(x[7] & y[7])
		case opOr2:
			x, y := &v[ins.a], &v[ins.b]
			d[0] = x[0] | y[0]
			d[1] = x[1] | y[1]
			d[2] = x[2] | y[2]
			d[3] = x[3] | y[3]
			d[4] = x[4] | y[4]
			d[5] = x[5] | y[5]
			d[6] = x[6] | y[6]
			d[7] = x[7] | y[7]
		case opNor2:
			x, y := &v[ins.a], &v[ins.b]
			d[0] = ^(x[0] | y[0])
			d[1] = ^(x[1] | y[1])
			d[2] = ^(x[2] | y[2])
			d[3] = ^(x[3] | y[3])
			d[4] = ^(x[4] | y[4])
			d[5] = ^(x[5] | y[5])
			d[6] = ^(x[6] | y[6])
			d[7] = ^(x[7] | y[7])
		case opXor2:
			x, y := &v[ins.a], &v[ins.b]
			d[0] = x[0] ^ y[0]
			d[1] = x[1] ^ y[1]
			d[2] = x[2] ^ y[2]
			d[3] = x[3] ^ y[3]
			d[4] = x[4] ^ y[4]
			d[5] = x[5] ^ y[5]
			d[6] = x[6] ^ y[6]
			d[7] = x[7] ^ y[7]
		case opXnor2:
			x, y := &v[ins.a], &v[ins.b]
			d[0] = ^(x[0] ^ y[0])
			d[1] = ^(x[1] ^ y[1])
			d[2] = ^(x[2] ^ y[2])
			d[3] = ^(x[3] ^ y[3])
			d[4] = ^(x[4] ^ y[4])
			d[5] = ^(x[5] ^ y[5])
			d[6] = ^(x[6] ^ y[6])
			d[7] = ^(x[7] ^ y[7])
		case opAndNot2:
			x, y := &v[ins.a], &v[ins.b]
			d[0] = ^x[0] & y[0]
			d[1] = ^x[1] & y[1]
			d[2] = ^x[2] & y[2]
			d[3] = ^x[3] & y[3]
			d[4] = ^x[4] & y[4]
			d[5] = ^x[5] & y[5]
			d[6] = ^x[6] & y[6]
			d[7] = ^x[7] & y[7]
		case opConst0:
			*d = Vec{}
		case opConst1:
			*d = Ones()
		case opAndN, opNandN, opOrN, opNorN, opXorN, opXnorN:
			nary8(v, st.args[ins.a:ins.a+ins.b], ins.op(), d)
		case opOrXorN:
			orXor8(v, st.args[ins.a:ins.a+ins.b], d)
		default:
			s.evalSlow(ins, st, d)
		}
	}
}

// nary8 evaluates an n-ary And, Or or Xor gate over pins, complemented
// for Nand, Nor and Xnor.  The eight lanes accumulate in
// locals and *d is written once, not once per pin.
func nary8(v []Vec, pins []int32, op opcode, d *Vec) {
	x := &v[pins[0]]
	a0, a1, a2, a3, a4, a5, a6, a7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	switch op {
	case opAndN, opNandN:
		for _, f := range pins[1:] {
			x := &v[f]
			a0 &= x[0]
			a1 &= x[1]
			a2 &= x[2]
			a3 &= x[3]
			a4 &= x[4]
			a5 &= x[5]
			a6 &= x[6]
			a7 &= x[7]
		}
	case opOrN, opNorN:
		for _, f := range pins[1:] {
			x := &v[f]
			a0 |= x[0]
			a1 |= x[1]
			a2 |= x[2]
			a3 |= x[3]
			a4 |= x[4]
			a5 |= x[5]
			a6 |= x[6]
			a7 |= x[7]
		}
	default:
		for _, f := range pins[1:] {
			x := &v[f]
			a0 ^= x[0]
			a1 ^= x[1]
			a2 ^= x[2]
			a3 ^= x[3]
			a4 ^= x[4]
			a5 ^= x[5]
			a6 ^= x[6]
			a7 ^= x[7]
		}
	}
	var inv uint64
	if op == opNandN || op == opNorN || op == opXnorN {
		inv = ^uint64(0)
	}
	d[0] = a0 ^ inv
	d[1] = a1 ^ inv
	d[2] = a2 ^ inv
	d[3] = a3 ^ inv
	d[4] = a4 ^ inv
	d[5] = a5 ^ inv
	d[6] = a6 ^ inv
	d[7] = a7 ^ inv
}

// orXor8 evaluates opOrXorN: the OR, over the pairs of pins,
// of their XOR.  The eight lanes accumulate in locals and *d is written
// once.
func orXor8(v []Vec, pins []int32, d *Vec) {
	var a0, a1, a2, a3, a4, a5, a6, a7 uint64
	for i := 0; i+1 < len(pins); i += 2 {
		x, y := &v[pins[i]], &v[pins[i+1]]
		a0 |= x[0] ^ y[0]
		a1 |= x[1] ^ y[1]
		a2 |= x[2] ^ y[2]
		a3 |= x[3] ^ y[3]
		a4 |= x[4] ^ y[4]
		a5 |= x[5] ^ y[5]
		a6 |= x[6] ^ y[6]
		a7 |= x[7] ^ y[7]
	}
	d[0] = a0
	d[1] = a1
	d[2] = a2
	d[3] = a3
	d[4] = a4
	d[5] = a5
	d[6] = a6
	d[7] = a7
}
