package flow

// A Fact is one point in an analysis's join-semilattice. Facts are treated
// as immutable: Transfer and Join must return fresh values (or the inputs
// unchanged), never mutate their arguments, so block inputs stay stable
// while the worklist iterates.
type Fact interface {
	// Equal reports whether two facts are the same lattice point; the
	// fixpoint loop stops re-queueing a block's successors once its output
	// fact stops changing.
	Equal(Fact) bool
}

// An Analysis configures one forward dataflow problem over a Graph.
type Analysis struct {
	// Entry is the fact holding at function entry.
	Entry Fact
	// Join combines the facts of two predecessors (the lattice's least
	// upper bound: set-union for may-analyses, intersection for
	// must-analyses).
	Join func(a, b Fact) Fact
	// Transfer pushes a fact through one block, in Node order.
	Transfer func(b *Block, in Fact) Fact
}

// Forward iterates Transfer over the blocks reachable from g.Entry until
// the facts stop changing, and returns the fact at each block's entry and
// exit. Unreachable blocks get no facts. The loop is bounded (lattices used
// here are finite, but a non-monotone Transfer must not hang the linter):
// past the bound the current approximation is returned as-is.
func Forward(g *Graph, a Analysis) (in, out map[*Block]Fact) {
	in = make(map[*Block]Fact)
	out = make(map[*Block]Fact)
	reach := g.Reachable()
	inReach := make([]bool, len(g.Blocks))
	for _, b := range reach {
		inReach[b.Index] = true
	}

	in[g.Entry] = a.Entry
	out[g.Entry] = a.Transfer(g.Entry, a.Entry)
	work := append([]*Block(nil), reach...)
	queued := make([]bool, len(g.Blocks))
	for _, b := range work {
		queued[b.Index] = true
	}
	budget := 64 * (len(reach) + 1)
	for len(work) > 0 && budget > 0 {
		budget--
		b := work[0]
		work = work[1:]
		queued[b.Index] = false

		var acc Fact
		if b == g.Entry {
			acc = a.Entry
		}
		for _, p := range b.Preds {
			pf, ok := out[p]
			if !ok {
				continue // unreachable or not yet computed predecessor
			}
			if acc == nil {
				acc = pf
			} else {
				acc = a.Join(acc, pf)
			}
		}
		if acc == nil {
			continue // no computed predecessor yet; a pred will requeue us
		}
		in[b] = acc
		nf := a.Transfer(b, acc)
		if prev, ok := out[b]; ok && prev.Equal(nf) {
			continue
		}
		out[b] = nf
		for _, s := range b.Succs {
			if inReach[s.Index] && !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return in, out
}
