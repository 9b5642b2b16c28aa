package mrc

// initialPositions is the Fenwick tree's starting size in logical
// access times. Short traces never grow past it; long ones double on
// demand up to the access budget, so building an engine costs the same
// whatever budget the caller passes.
const initialPositions = 1 << 16

// node holds both stack weights at one Fenwick position: line is the
// line-grain cost (1 per stacked line), word the word-grain cost
// (allocated word slots).
type node struct {
	line, word int32
}

// fenwick is a binary indexed tree over logical access time, used as
// the order-statistic structure behind the Mattson stack: the weights
// at position t are the stack costs of the line most recently touched
// at time t. Nothing sits after the current time, so the totals minus
// the prefix sums over 1..p are the cost of every line touched after
// p — the reuse distance contribution of everything above the reused
// line in the LRU stack. One walk serves both granularities; add and
// after are O(log n).
//
// Positions are 1-based; position 0 is reserved as "never touched".
// The tree covers len(tree)-1 positions and grows by doubling (see
// grow); lineTotal and wordTotal are the running sums of every weight.
type fenwick struct {
	tree      []node
	lineTotal int64
	wordTotal int64
}

func newFenwick(maxPositions int) fenwick {
	return fenwick{tree: make([]node, min(maxPositions, initialPositions)+1)}
}

// add adds (dl, dw) to the weights at position i (1-based), which must
// lie inside the tree.
//
//ldis:noalloc
func (f *fenwick) add(i int, dl, dw int32) {
	f.lineTotal += int64(dl)
	f.wordTotal += int64(dw)
	for ; i < len(f.tree); i += i & -i {
		f.tree[i].line += dl
		f.tree[i].word += dw
	}
}

// after returns the sums of both weights at positions after p: the
// totals minus a prefix walk over 1..p.
//
//ldis:noalloc
func (f *fenwick) after(p int) (line, word int64) {
	line, word = f.lineTotal, f.wordTotal
	for ; p > 0; p -= p & -p {
		line -= int64(f.tree[p].line)
		word -= int64(f.tree[p].word)
	}
	return line, word
}

// grow doubles the tree's positions, capped at limit. While the size
// n is a power of two, node n covers (0, n] and every new node in
// (n, 2n) covers only positions above n, which are still empty; so
// growing is a copy plus node 2n = the totals (omitted when the cap
// stops short of 2n). Past the cap the size is no longer a power of
// two, but the tree never grows again.
func (f *fenwick) grow(limit int) {
	n := len(f.tree) - 1
	m := min(2*n, limit)
	//ldis:alloc-ok amortized growth of the logical clock; doubling up to the access budget keeps per-access cost O(1)
	tree := make([]node, m+1)
	copy(tree, f.tree)
	if m == 2*n {
		tree[m] = node{line: int32(f.lineTotal), word: int32(f.wordTotal)}
	}
	f.tree = tree
}
