package rctree

import "testing"

// CheckTimesFlatAll runs TimesFlatAll over outs and fails t unless it agrees
// with one call per output of the per-output kernel TimesFlat, the oracle:
// identical Times (== on every field) up to the first output the oracle
// rejects, then that output's index and error message.
func CheckTimesFlatAll(t testing.TB, parent []int32, kind []uint8, edgeR, edgeC, nodeC []float64, outs []int32, s *Scratch) {
	t.Helper()
	dst := make([]Times, len(outs))
	done, err := TimesFlatAll(parent, kind, edgeR, edgeC, nodeC, outs, dst, s)
	var os Scratch
	for j, e := range outs {
		want, werr := TimesFlat(parent, kind, edgeR, edgeC, nodeC, int(e), &os)
		if werr != nil {
			if done != j || err == nil || err.Error() != werr.Error() {
				t.Fatalf("output %d (node %d): TimesFlatAll stopped at %d with %v, oracle fails with %v", j, e, done, err, werr)
			}
			return
		}
		if j >= done {
			t.Fatalf("output %d (node %d): TimesFlatAll stopped at %d with %v, oracle gives %+v", j, e, done, err, want)
		}
		if dst[j] != want {
			t.Fatalf("output %d (node %d): fused %+v != oracle %+v", j, e, dst[j], want)
		}
	}
	if done != len(outs) || err != nil {
		t.Fatalf("TimesFlatAll stopped at %d of %d with %v; the oracle accepts every output", done, len(outs), err)
	}
}

// decodeFlatTree turns fuzz bytes into a flat tree in topological order plus
// an output list: one header byte for the node count, five bytes per
// non-root node (parent, kind, R, line C, lumped C), then one byte per
// output. Values are small integers over 7: zero resistances (Ree = 0) are
// common, and the inexact quotients make any reordered sum show in the low
// bits. A set top bit negates a value, which drives the validation error
// paths.
func decodeFlatTree(data []byte) (parent []int32, kind []uint8, edgeR, edgeC, nodeC []float64, outs []int32) {
	if len(data) == 0 {
		return nil, nil, nil, nil, nil, nil
	}
	n := 1 + int(data[0])%96
	data = data[1:]
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	val := func() float64 {
		b := next()
		v := float64(b&0x7f) / 7
		if b&0x80 != 0 {
			v = -v
		}
		return v
	}
	parent = make([]int32, n)
	kind = make([]uint8, n)
	edgeR = make([]float64, n)
	edgeC = make([]float64, n)
	nodeC = make([]float64, n)
	parent[0] = -1
	nodeC[0] = val()
	for i := 1; i < n; i++ {
		parent[i] = int32(int(next()) % i)
		if next()&1 == 1 {
			kind[i] = uint8(EdgeLine)
			edgeR[i], edgeC[i] = val(), val()
		} else {
			kind[i] = uint8(EdgeResistor)
			edgeR[i] = val()
		}
		nodeC[i] = val()
	}
	for len(data) > 0 {
		// Indices past n exercise the out-of-range error.
		outs = append(outs, int32(int(next())%(n+2)))
	}
	return parent, kind, edgeR, edgeC, nodeC, outs
}

// FuzzTimesFlatAll pins the fused all-outputs sweep to the per-output oracle
// on decoded arenas and output subsets (duplicates, the root, out-of-range
// indices, and more than 64 outputs included).
func FuzzTimesFlatAll(f *testing.F) {
	f.Add([]byte{4, 0, 0, 8, 0, 8, 1, 1, 16, 4, 2, 0, 0, 8, 8, 1, 2, 3, 0})
	f.Add([]byte{0, 3, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{3, 0, 0, 8, 0, 80, 0, 0, 0x88, 0, 0, 1, 2})
	long := []byte{95}
	for i := 0; i < 95; i++ {
		long = append(long, byte(i), byte(i), byte(i*7), byte(i*3), byte(i*5))
	}
	for i := 0; i < 200; i++ {
		long = append(long, byte(i))
	}
	f.Add(long)
	var s Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		parent, kind, edgeR, edgeC, nodeC, outs := decodeFlatTree(data)
		if parent == nil {
			return
		}
		CheckTimesFlatAll(t, parent, kind, edgeR, edgeC, nodeC, outs, &s)
	})
}

// TestDecodeFlatTreeShape keeps the fuzz decoder honest: parents precede
// children and every length agrees.
func TestDecodeFlatTreeShape(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	parent, kind, edgeR, edgeC, nodeC, outs := decodeFlatTree(data)
	n := len(parent)
	if n == 0 || len(kind) != n || len(edgeR) != n || len(edgeC) != n || len(nodeC) != n {
		t.Fatalf("decoded lengths disagree: %d %d %d %d %d", n, len(kind), len(edgeR), len(edgeC), len(nodeC))
	}
	if parent[0] != -1 {
		t.Fatalf("root parent %d", parent[0])
	}
	for i := 1; i < n; i++ {
		if parent[i] < 0 || int(parent[i]) >= i {
			t.Fatalf("node %d has parent %d, not topological", i, parent[i])
		}
	}
	for _, e := range outs {
		if e < 0 || int(e) >= n+2 {
			t.Fatalf("output %d outside [0, n+2)", e)
		}
	}
}
