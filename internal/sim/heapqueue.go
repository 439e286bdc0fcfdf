package sim

// heapQueue is the engine's event queue: an index-based binary min-heap
// over pending event nodes, ordered by eventLess. Dequeue order is the
// total (when, seq) order, so events at one instant fire FIFO in
// scheduling order; every trace depends on that. It replaces
// container/heap: no interface dispatch on the comparison, no `any` boxing
// on push/pop, and node removal is O(log n) via the index each node
// carries. The backing slice is retained across pops, so steady-state
// operation never allocates.
type heapQueue struct {
	items []*event
}

func (h *heapQueue) len() int { return len(h.items) }

func (h *heapQueue) push(n *event) {
	n.index = len(h.items)
	h.items = append(h.items, n)
	h.up(n.index)
}

func (h *heapQueue) peek() *event {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *heapQueue) pop() *event {
	n := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[0].index = 0
	h.items[last] = nil // drop the reference so the freelist owns the node
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	n.index = -1
	return n
}

func (h *heapQueue) remove(n *event) {
	i := n.index
	last := len(h.items) - 1
	if i != last {
		h.items[i] = h.items[last]
		h.items[i].index = i
	}
	h.items[last] = nil
	h.items = h.items[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	n.index = -1
}

func (h *heapQueue) update(n *event) {
	h.down(n.index)
	h.up(n.index)
}

func (h *heapQueue) up(i int) {
	items := h.items
	n := items[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := items[parent]
		if !eventLess(n, p) {
			break
		}
		items[i] = p
		p.index = i
		i = parent
	}
	items[i] = n
	n.index = i
}

func (h *heapQueue) down(i int) {
	items := h.items
	n := items[i]
	size := len(items)
	for {
		child := 2*i + 1
		if child >= size {
			break
		}
		if r := child + 1; r < size && eventLess(items[r], items[child]) {
			child = r
		}
		c := items[child]
		if !eventLess(c, n) {
			break
		}
		items[i] = c
		c.index = i
		i = child
	}
	items[i] = n
	n.index = i
}
