package engine

import (
	"bytes"
	"hash/maphash"

	"tdb/internal/relation"
)

// Column codes (DESIGN.md "The relation index"): one column of a
// registered relation as a dense int32 code per row, equal codes exactly
// for relation.AppendKey-equal cells, with each code's rows listed in
// ascending position. An equality selection reads its rows off the list
// of its constant's code, and a self equi-join chains its build rows by
// code — neither compares nor hashes a cell. Every array is pointer-free,
// so the garbage collector never scans one.
type columnCodes struct {
	codes []int32 // codes[i] is the code of row i's cell
	// The rows whose cell has code c are rows[starts[c]:starts[c+1]],
	// ascending.
	starts []int32
	rows   []int32
	dict   codeDict
}

// buildCodes codes column col of rows, numbering values in order of first
// appearance.
func buildCodes(rows []relation.Row, col int) *columnCodes {
	n := len(rows)
	c := &columnCodes{codes: make([]int32, n), dict: newCodeDict()}
	cols := []int{col}
	var key []byte
	for i, r := range rows {
		key = relation.AppendKey(key[:0], r, cols)
		c.codes[i] = c.dict.add(key)
	}
	k := c.dict.len()
	c.starts = make([]int32, k+1)
	for _, code := range c.codes {
		c.starts[code+1]++
	}
	for j := 1; j <= k; j++ {
		c.starts[j] += c.starts[j-1]
	}
	next := make([]int32, k)
	copy(next, c.starts)
	c.rows = make([]int32, n)
	for i, code := range c.codes {
		c.rows[next[code]] = int32(i)
		next[code]++
	}
	return c
}

// len returns the number of distinct values.
func (c *columnCodes) len() int { return len(c.starts) - 1 }

// match returns the ascending positions of the rows whose cell encodes to
// key, clipped so that no append can write into the shared list, or nil
// when no row holds it.
func (c *columnCodes) match(key []byte) []int32 {
	code := c.dict.lookup(key)
	if code < 0 {
		return nil
	}
	lo, hi := c.starts[code], c.starts[code+1]
	return c.rows[lo:hi:hi]
}

// bytes is what the codes cost the index's budget.
func (c *columnCodes) bytes() int64 {
	d := &c.dict
	return int64(4*(len(c.codes)+len(c.starts)+len(c.rows)+len(d.slots)+len(d.ends)) + len(d.arena))
}

// codeSeed hashes every dictionary's keys and distinctRows' row keys;
// neither codes nor results depend on it.
var codeSeed = maphash.MakeSeed()

// codeDict maps a cell's AppendKey encoding to its code by open addressing
// over pointer-free arrays: a slot holds one plus the code hashed there (0
// when empty), and code c's key is arena[ends[c]:ends[c+1]].
type codeDict struct {
	slots []int32 // a power of two in length, at most half full
	ends  []int32
	arena []byte
}

func newCodeDict() codeDict {
	return codeDict{slots: make([]int32, 64), ends: []int32{0}}
}

func (d *codeDict) len() int { return len(d.ends) - 1 }

// find returns key's code and slot, or -1 and the empty slot where it
// would go.
func (d *codeDict) find(key []byte) (int32, int) {
	mask := len(d.slots) - 1
	for s := int(maphash.Bytes(codeSeed, key)) & mask; ; s = (s + 1) & mask {
		v := d.slots[s]
		if v == 0 {
			return -1, s
		}
		if c := v - 1; bytes.Equal(d.arena[d.ends[c]:d.ends[c+1]], key) {
			return c, s
		}
	}
}

// lookup returns key's code, or -1.
func (d *codeDict) lookup(key []byte) int32 {
	c, _ := d.find(key)
	return c
}

// add returns key's code, giving it the next one if it has none.
func (d *codeDict) add(key []byte) int32 {
	c, s := d.find(key)
	if c >= 0 {
		return c
	}
	c = int32(d.len())
	d.arena = append(d.arena, key...)
	d.ends = append(d.ends, int32(len(d.arena)))
	d.slots[s] = c + 1
	if 2*d.len() > len(d.slots) {
		d.grow()
	}
	return c
}

// grow doubles the slots and rehashes every key into them.
func (d *codeDict) grow() {
	d.slots = make([]int32, 2*len(d.slots))
	mask := len(d.slots) - 1
	for c := range int32(d.len()) {
		s := int(maphash.Bytes(codeSeed, d.arena[d.ends[c]:d.ends[c+1]])) & mask
		for d.slots[s] != 0 {
			s = (s + 1) & mask
		}
		d.slots[s] = c + 1
	}
}
