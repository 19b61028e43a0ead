package relation

import (
	"tdb/internal/interval"
)

// This file is the one lifespan sort of the repository. Every path that
// establishes a temporal Order — Relation.Sort, the engine's stream-operator
// inputs, the external sort's run formation, the live backfills, the
// baseline band scans — extracts the order's endpoint keys once, sorts
// (key, index) pairs with a stable least-significant-digit radix sort, and
// moves the elements once by the resulting permutation. No comparison
// closure runs per element pair, and every path shares one stability
// contract: elements that compare equal under the order keep their input
// order. See DESIGN.md "Sorting".

// signBias maps a chronon's two's-complement bits onto unsigned order.
const signBias = 1 << 63

// mask is the key's encoding as one XOR over the chronon's bits: the sign
// bias for ↑, its complement for ↓ — complementing reverses the unsigned
// order, so a stable ascending sort of the encoded keys is a stable
// descending sort of the chronons.
func (k TemporalKey) mask() uint64 {
	if k.Desc {
		return ^uint64(signBias)
	}
	return signBias
}

// effective returns the keys of the order that can decide a comparison.
// A lifespan has two endpoints, so a key on an endpoint that an earlier key
// already ordered never breaks a tie: at most two keys remain.
func (o Order) effective() (keys [2]TemporalKey, n int) {
	for _, k := range o {
		if n == 0 || (n == 1 && k.Endpoint != keys[0].Endpoint) {
			keys[n] = k
			n++
		}
	}
	return keys, n
}

// SortKey is a lifespan's position under an Order, encoded so that plain
// unsigned lexicographic comparison of two keys agrees with Order.Compare
// on the lifespans. It is the same encoding the sort's radix passes use;
// the external sort's merge extracts it once per row read.
type SortKey [2]uint64

// SortKey encodes the lifespan's position under the order.
func (o Order) SortKey(iv interval.Interval) SortKey {
	var sk SortKey
	keys, n := o.effective()
	for i := 0; i < n; i++ {
		sk[i] = uint64(endpoint(iv, keys[i].Endpoint)) ^ keys[i].mask()
	}
	return sk
}

// Less reports whether a sorts strictly before b.
func (a SortKey) Less(b SortKey) bool {
	return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
}

// keyIdx pairs one element's encoded key with its input position; after a
// sort the idx fields, read in order, are the stable permutation. Positions
// are int32, like every row index the batch kernels exchange.
type keyIdx struct {
	key uint64
	idx int32
}

// Sizes chosen by measurement (BenchmarkSortSpans, 40 000 shuffled rows on
// the 2-core reference box): byte digits sort the TS↑ case in 1.65 ms
// against 1.9 ms for 11-bit and 2.6 ms for 16-bit digits — chronon keys
// seldom vary above their low three bytes, so wider digits save no pass and
// their histograms leave L1. Below insertionMax pairs the histogram set-up
// costs more than an insertion sort of the pairs (crossover measured
// between 32 and 64; a 500-pair radix sort takes 8 µs).
const (
	radixBits    = 8
	radixDigits  = 64 / radixBits
	radixBuckets = 1 << radixBits
	insertionMax = 48
)

// radixSort stably sorts a by key, using b (same length) as the other half
// of the ping-pong; it returns the buffer holding the result first and the
// spare second. varying has a bit set wherever two keys differ: digits it
// leaves clear are constant across the input and cost no pass.
func radixSort(a, b []keyIdx, varying uint64) (sorted, spare []keyIdx) {
	if len(a) <= insertionMax {
		//tdb:hotpath
		for i := 1; i < len(a); i++ {
			p := a[i]
			j := i
			for ; j > 0 && a[j-1].key > p.key; j-- {
				a[j] = a[j-1]
			}
			a[j] = p
		}
		return a, b
	}
	var shifts [radixDigits]uint
	nd := 0
	for s := uint(0); s < 64; s += radixBits {
		if (varying>>s)&(radixBuckets-1) != 0 {
			shifts[nd] = s
			nd++
		}
	}
	var hist [radixDigits][radixBuckets]uint32
	//tdb:hotpath
	for i := range a {
		k := a[i].key
		for d := 0; d < nd; d++ {
			hist[d][(k>>shifts[d])&(radixBuckets-1)]++
		}
	}
	for d := 0; d < nd; d++ {
		h, shift := &hist[d], shifts[d]
		sum := uint32(0)
		for v := range h {
			sum, h[v] = sum+h[v], sum
		}
		//tdb:hotpath
		for i := range a {
			v := (a[i].key >> shift) & (radixBuckets - 1)
			b[h[v]] = a[i]
			h[v]++
		}
		a, b = b, a
	}
	return a, b
}

// spanCols is a list of lifespans as two endpoint columns, element i being
// [ts[i], te[i]) — what every sort below reads instead of the elements.
type spanCols struct {
	ts, te []interval.Time
}

func (c spanCols) column(e interval.Endpoint) []interval.Time {
	if e == interval.TS {
		return c.ts
	}
	return c.te
}

// inOrder reports whether the columns already satisfy the order.
func (c spanCols) inOrder(o Order) bool {
	keys, n := o.effective()
	if n == 0 {
		return true
	}
	c0, m0 := c.column(keys[0].Endpoint), keys[0].mask()
	c1, m1 := c.column(keys[n-1].Endpoint), keys[n-1].mask()
	//tdb:hotpath
	for i := 1; i < len(c0); i++ {
		p, q := uint64(c0[i-1])^m0, uint64(c0[i])^m0
		if p > q || (p == q && uint64(c1[i-1])^m1 > uint64(c1[i])^m1) {
			return false
		}
	}
	return true
}

// sortScratch is the reusable workspace of one lifespan sort: the input's
// endpoint columns in input order (when the caller holds elements, not
// columns) and the two pair buffers, 48 bytes per element and free of
// pointers. A released scratch keeps whatever capacity the largest sort
// grew, so a sort allocates nothing after warm-up.
type sortScratch struct {
	cols spanCols
	a, b []keyIdx
}

// Scratches wait on a bounded free list, not in a sync.Pool: a sync.Pool
// keeps a slot per P and drops its contents at the second collection after
// they were put, so whether a sort finds its scratch or re-makes 48 B/row
// would depend on which P it runs on and on when the collector last ran —
// under a caller that collects between queries about every other sort
// misses, and equal queries stop costing the same. The list holds at most
// sortFreeSlots scratches of at most sortRetainRows elements each (4 × 6 MiB);
// more concurrent sorts, or larger ones, allocate and are dropped on release.
// 2¹⁷ rows covers every in-memory sort of the ledger's workloads and any
// spill run up to that SortMemRows.
const (
	sortFreeSlots  = 4
	sortRetainRows = 1 << 17
)

var sortFree = make(chan *sortScratch, sortFreeSlots)

// acquireSort takes a scratch with pair buffers for n elements from the
// free list.
func acquireSort(n int) *sortScratch {
	var sc *sortScratch
	select {
	case sc = <-sortFree:
	default:
		sc = new(sortScratch)
	}
	if cap(sc.a) < n {
		sc.a, sc.b = make([]keyIdx, n), make([]keyIdx, n)
	}
	sc.a, sc.b = sc.a[:n], sc.b[:n]
	return sc
}

func (sc *sortScratch) release() {
	if cap(sc.a) > sortRetainRows {
		return
	}
	select {
	case sortFree <- sc:
	default:
	}
}

// columns returns the scratch's endpoint columns for n elements.
func (sc *sortScratch) columns(n int) spanCols {
	if cap(sc.cols.ts) < n {
		sc.cols = spanCols{ts: make([]interval.Time, n), te: make([]interval.Time, n)}
	}
	return spanCols{ts: sc.cols.ts[:n], te: sc.cols.te[:n]}
}

// load shreds the elements' lifespans into the scratch's endpoint columns.
func load[T any](sc *sortScratch, xs []T, span func(T) interval.Interval) spanCols {
	c := sc.columns(len(xs))
	shred(c, xs, span)
	return c
}

// shred fills the columns with the elements' lifespans, in input order.
func shred[T any](c spanCols, xs []T, span func(T) interval.Interval) {
	for i := range xs {
		iv := span(xs[i])
		c.ts[i], c.te[i] = iv.Start, iv.End
	}
}

// perm sorts the columns under the order and returns the pairs in sorted
// order: position i of the result belongs to input element perm[i].idx.
// Composite orders sort least-significant key first; each pass is stable,
// so the earlier result survives as the tiebreak.
func (sc *sortScratch) perm(c spanCols, o Order) []keyIdx {
	keys, n := o.effective()
	a, b := sc.a, sc.b
	for i := range a {
		a[i].idx = int32(i)
	}
	for k := n - 1; k >= 0; k-- {
		col, m := c.column(keys[k].Endpoint), keys[k].mask()
		or, and := uint64(0), ^uint64(0)
		//tdb:hotpath
		for i := range a {
			key := uint64(col[a[i].idx]) ^ m
			a[i].key = key
			or, and = or|key, and&key
		}
		a, b = radixSort(a, b, or&^and)
	}
	return a
}

// SortSpans sorts a slice of arbitrary elements by their lifespans under
// the order, using the accessor to obtain each element's lifespan (once per
// element). The sort is stable so that repeated sorting with refining
// orders behaves like a composite sort.
func SortSpans[T any](xs []T, span func(T) interval.Interval, o Order) {
	if len(xs) < 2 {
		return
	}
	sc := acquireSort(len(xs))
	defer sc.release()
	c := load(sc, xs, span)
	if c.inOrder(o) {
		return
	}
	// Apply the permutation in place, one cycle at a time: every element
	// moves once and no second slice of T is needed.
	p := sc.perm(c, o)
	for i := range p {
		if p[i].idx < 0 {
			continue
		}
		first := xs[i]
		j := i
		for {
			k := int(p[j].idx)
			p[j].idx = -1
			if k == i {
				xs[j] = first
				break
			}
			xs[j] = xs[k]
			j = k
		}
	}
}

// OrderSpans establishes the order over xs without moving an element: it
// returns the stable permutation — position i of the order holds xs[perm[i]]
// — and the lifespans as endpoint columns already in that order, which is
// all a columnar sweep reads; the caller gathers only the elements it goes
// on to use. A nil perm means xs already has the order (an interesting
// order) and the columns are in input order.
func OrderSpans[T any](xs []T, span func(T) interval.Interval, o Order) (perm []int32, ts, te []interval.Time) {
	ts, te = ShredSpans(xs, span)
	perm, _ = SortColumns(ts, te, o, true)
	return perm, ts, te
}

// ShredSpans returns the elements' lifespans as endpoint columns in input
// order: element i lives over [ts[i], te[i]).
func ShredSpans[T any](xs []T, span func(T) interval.Interval) (ts, te []interval.Time) {
	n := len(xs)
	cols := make([]interval.Time, 2*n)
	ts, te = cols[:n:n], cols[n:]
	shred(spanCols{ts: ts, te: te}, xs, span)
	return ts, te
}

// SortedColumns reports whether the lifespans [ts[i], te[i]) already
// satisfy the order: SortedSpans for endpoint columns.
func SortedColumns(ts, te []interval.Time, o Order) bool {
	return spanCols{ts: ts, te: te}.inOrder(o)
}

// SortColumns sorts lifespans given as endpoint columns in place under the
// order, stably, and reports whether any moved: false means the columns
// already had the order (an interesting order) and are untouched. With
// withPerm it also returns the permutation of a sort that moved them —
// position i of the order holds the lifespan that was at perm[i] — and nil
// otherwise: a caller that reads only the sorted columns, never the
// elements behind them, skips its four bytes per element.
func SortColumns(ts, te []interval.Time, o Order, withPerm bool) (perm []int32, moved bool) {
	if (spanCols{ts: ts, te: te}).inOrder(o) {
		return nil, false
	}
	n := len(ts)
	sc := acquireSort(n)
	defer sc.release()
	in := sc.columns(n)
	copy(in.ts, ts)
	copy(in.te, te)
	p := sc.perm(in, o)
	if withPerm {
		perm = make([]int32, n)
	}
	//tdb:hotpath
	for i := range p {
		j := p[i].idx
		ts[i], te[i] = in.ts[j], in.te[j]
		if perm != nil {
			perm[i] = j
		}
	}
	return perm, true
}

// OrderColumns is OrderSpans for lifespans that are already endpoint
// columns — no element, no accessor: it fills perm, which must be as long
// as the columns, with the stable permutation that establishes the order
// (position i of the order holds lifespan perm[i]), the identity when the
// columns already have it. The external key sort forms its runs with it,
// one workspace-sized slice of the columns at a time.
func OrderColumns(ts, te []interval.Time, o Order, perm []int32) {
	c := spanCols{ts: ts, te: te}
	if c.inOrder(o) {
		for i := range perm {
			perm[i] = int32(i)
		}
		return
	}
	sc := acquireSort(len(ts))
	defer sc.release()
	p := sc.perm(c, o)
	//tdb:hotpath
	for i := range p {
		perm[i] = p[i].idx
	}
}
