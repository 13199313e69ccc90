package sim

import "math/bits"

// The hierarchical timer wheel. Near events live in four levels of 64
// slots each; level l buckets instants by 2^(10+6l) nanoseconds, so the
// wheel spans ~1µs slots at level 0 up to ~268ms slots at level 3 — a
// horizon of about 17 simulated seconds ahead of the cursor. Events
// beyond the horizon wait in a small overflow min-heap and cascade into
// the wheel as the cursor advances.
//
// A single virtual cursor (in level-0 ticks) orders everything: level
// l's cursor tick is cur >> 6l. Firing order is the engine contract,
// (when, seq): the wheel finds the next occupied level-0 slot with a
// bitmap scan, drains it into the sorted "due" queue, and pops that
// queue in order.
//
// The subtle part is the scan discipline. A level's 64-slot window may
// extend past the parent level's current slot boundary, and the parent
// slot just beyond that boundary can hold events that interleave with
// this level's late bits. So a level is only scanned up to its parent's
// slot edge (bm >> off, no rotation — a wrapped bit means "cross the
// boundary first"), and every boundary crossing goes through advanceTo,
// which cascades each level whose current slot changed, top-down,
// before any lower level is consulted again. That keeps the invariant
// that everything still parked at level l is at or after the cursor's
// position in level-l ticks, and nothing earlier hides above.
const (
	wheelLevels   = 4
	wheelSlotBits = 6
	wheelSlots    = 1 << wheelSlotBits
	wheelSlotMask = wheelSlots - 1
	wheelShift0   = 10 // level-0 slot width: 2^10 ns ≈ 1µs
)

// wheelShift returns the instant-to-tick shift of level l.
func wheelShift(l int) uint { return wheelShift0 + uint(l)*wheelSlotBits }

type wheel struct {
	// cur is the virtual cursor in level-0 ticks; level l's cursor is
	// cur >> 6l. Slots before the cursor are in the past.
	cur uint64
	// slots holds the head of each slot's doubly-linked entry list
	// (-1 when empty); bitmap mirrors slot occupancy for O(1) scans.
	slots  [wheelLevels][wheelSlots]int32
	bitmap [wheelLevels]uint64

	// due is the drained current level-0 slot, sorted by (when, seq)
	// and consumed from dueHead. dueEnd is the exclusive upper bound of
	// the due window: newly scheduled events before it are inserted
	// into due directly (in order), keeping the window's firing order
	// exact even for events scheduled while it drains.
	due     []int32
	dueHead int
	dueEnd  Time

	// overflow holds events beyond the wheel horizon, as a min-heap
	// ordered by (when, seq). Entry.next stores the heap position.
	overflow []int32
}

func newWheel() *wheel {
	w := &wheel{}
	for l := range w.slots {
		for i := range w.slots[l] {
			w.slots[l][i] = -1
		}
	}
	return w
}

// curAt returns the cursor tick of level l.
func (w *wheel) curAt(l int) uint64 { return w.cur >> (uint(l) * wheelSlotBits) }

func (w *wheel) insert(s *Simulator, idx int32) {
	if s.ents[idx].when < w.dueEnd {
		w.insertDue(s, idx)
		return
	}
	w.insertWheel(s, idx)
}

// insertDue places idx into the sorted live region of the due queue.
func (w *wheel) insertDue(s *Simulator, idx int32) {
	if w.dueHead == len(w.due) && len(w.due) > 0 {
		w.due = w.due[:0]
		w.dueHead = 0
	}
	e := &s.ents[idx]
	e.loc = locDue
	// Binary search in due[dueHead:]; ties cannot occur ((when, seq) is
	// unique) and the new event's seq exceeds all queued ones, so equal
	// instants land after their elders — the FIFO contract.
	lo, hi := w.dueHead, len(w.due)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.less(w.due[mid], idx) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.due = append(w.due, 0)
	copy(w.due[lo+1:], w.due[lo:])
	w.due[lo] = idx
}

// insertWheel parks idx in the lowest level whose window covers it, or
// the overflow heap beyond the horizon.
func (w *wheel) insertWheel(s *Simulator, idx int32) {
	e := &s.ents[idx]
	t := uint64(e.when)
	for l := 0; l < wheelLevels; l++ {
		tick := t >> wheelShift(l)
		if tick-w.curAt(l) < wheelSlots {
			slot := int(tick & wheelSlotMask)
			e.loc = locWheel
			e.level = uint8(l)
			e.slot = uint8(slot)
			e.prev = -1
			e.next = w.slots[l][slot]
			if e.next >= 0 {
				s.ents[e.next].prev = idx
			}
			w.slots[l][slot] = idx
			w.bitmap[l] |= 1 << uint(slot)
			return
		}
	}
	e.loc = locOverflow
	w.heapPush(s, idx)
}

func (w *wheel) remove(s *Simulator, idx int32) {
	e := &s.ents[idx]
	switch e.loc {
	case locDue:
		// idx is present in due[dueHead:] by invariant; find it by
		// binary search on (when, seq).
		lo, hi := w.dueHead, len(w.due)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.less(w.due[mid], idx) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(w.due[lo:], w.due[lo+1:])
		w.due = w.due[:len(w.due)-1]
	case locWheel:
		l, slot := int(e.level), int(e.slot)
		if e.prev >= 0 {
			s.ents[e.prev].next = e.next
		} else {
			w.slots[l][slot] = e.next
			if e.next < 0 {
				w.bitmap[l] &^= 1 << uint(slot)
			}
		}
		if e.next >= 0 {
			s.ents[e.next].prev = e.prev
		}
	case locOverflow:
		w.heapRemove(s, int(e.next))
	}
	e.loc = locNone
}

// takeSlot detaches and returns a slot's whole list.
func (w *wheel) takeSlot(l, slot int) int32 {
	head := w.slots[l][slot]
	w.slots[l][slot] = -1
	w.bitmap[l] &^= 1 << uint(slot)
	return head
}

// advanceTo moves the cursor forward to b (level-0 ticks) and cascades
// every level whose current slot changed, top-down, so that any events
// those slots hold are re-parked below before a lower level is scanned.
// The top-down order matters: a level-3 cascade can dump entries into
// level 2's new current slot, which the level-2 pass then picks up, and
// so on until everything near lands at level 0.
func (w *wheel) advanceTo(s *Simulator, b uint64) {
	old := w.cur
	w.cur = b
	for l := wheelLevels - 1; l >= 1; l-- {
		sh := uint(l) * wheelSlotBits
		tick := b >> sh
		if old>>sh == tick {
			continue
		}
		if l == wheelLevels-1 {
			// The horizon moved: pull overflow events that now fit.
			w.drainOverflow(s)
		}
		slot := int(tick & wheelSlotMask)
		if w.bitmap[l]&(1<<uint(slot)) != 0 {
			for idx := w.takeSlot(l, slot); idx >= 0; {
				next := s.ents[idx].next
				w.insertWheel(s, idx)
				idx = next
			}
		}
	}
}

// peek returns the index of the next event to fire, cascading and
// draining slots as needed, or -1 when empty.
func (w *wheel) peek(s *Simulator) int32 {
	for {
		if w.dueHead < len(w.due) {
			return w.due[w.dueHead]
		}
		if len(w.due) > 0 {
			w.due = w.due[:0]
			w.dueHead = 0
		}
		progress := false
		for l := 0; l < wheelLevels; l++ {
			cl := w.curAt(l)
			off := int(cl & wheelSlotMask)
			if high := w.bitmap[l] >> uint(off); high != 0 {
				// Next occupied slot before the parent boundary.
				tick := cl + uint64(bits.TrailingZeros64(high))
				if l == 0 {
					w.cur = tick
					w.dueEnd = Time((tick + 1) << wheelShift0)
					for idx := w.takeSlot(0, int(tick&wheelSlotMask)); idx >= 0; {
						next := s.ents[idx].next
						s.ents[idx].loc = locDue
						w.due = append(w.due, idx)
						idx = next
					}
					w.sortDue(s)
				} else {
					// Cascade it: advanceTo lands on the slot and takes
					// it apart (tick > cl — the current slot is always
					// cascaded empty before the cursor enters it).
					w.advanceTo(s, tick<<(uint(l)*wheelSlotBits))
				}
				progress = true
				break
			}
			if w.bitmap[l] != 0 {
				// Only wrapped bits remain: they lie beyond the parent
				// slot edge, where the parent's next slot may hold
				// interleaving events. Cross the boundary (top level
				// has no parent, so jump straight to the slot) and let
				// advanceTo cascade whatever the crossing uncovers.
				var b uint64
				if l == wheelLevels-1 {
					r := bits.RotateLeft64(w.bitmap[l], -off)
					tick := cl + uint64(bits.TrailingZeros64(r))
					b = tick << (uint(l) * wheelSlotBits)
				} else {
					b = (cl>>wheelSlotBits + 1) << (uint(l+1) * wheelSlotBits)
				}
				w.advanceTo(s, b)
				progress = true
				break
			}
		}
		if progress {
			continue
		}
		// Wheel empty: jump the cursor to the overflow minimum.
		if len(w.overflow) == 0 {
			return -1
		}
		w.advanceTo(s, uint64(s.ents[w.overflow[0]].when)>>wheelShift0)
	}
}

// pop discards the entry the preceding peek returned.
func (w *wheel) pop() { w.dueHead++ }

// drainOverflow moves every overflow event now inside the wheel horizon
// onto the wheel.
func (w *wheel) drainOverflow(s *Simulator) {
	shift := wheelShift(wheelLevels - 1)
	top := w.curAt(wheelLevels - 1)
	for len(w.overflow) > 0 {
		idx := w.overflow[0]
		if uint64(s.ents[idx].when)>>shift-top >= wheelSlots {
			return
		}
		w.heapRemove(s, 0)
		w.insertWheel(s, idx)
	}
}

// sortDue orders the freshly drained due queue by (when, seq): an
// allocation-free quicksort (insertion sort below 16) — sort.Slice
// would allocate its closure on the packet hot path.
func (w *wheel) sortDue(s *Simulator) {
	w.quicksort(s, 0, len(w.due))
}

func (w *wheel) quicksort(s *Simulator, lo, hi int) {
	for hi-lo > 16 {
		// Median-of-three pivot, moved to hi-1.
		mid := int(uint(lo+hi) >> 1)
		if s.less(w.due[mid], w.due[lo]) {
			w.due[mid], w.due[lo] = w.due[lo], w.due[mid]
		}
		if s.less(w.due[hi-1], w.due[lo]) {
			w.due[hi-1], w.due[lo] = w.due[lo], w.due[hi-1]
		}
		if s.less(w.due[hi-1], w.due[mid]) {
			w.due[hi-1], w.due[mid] = w.due[mid], w.due[hi-1]
		}
		pivot := w.due[hi-1]
		i := lo
		for j := lo; j < hi-1; j++ {
			if s.less(w.due[j], pivot) {
				w.due[i], w.due[j] = w.due[j], w.due[i]
				i++
			}
		}
		w.due[i], w.due[hi-1] = w.due[hi-1], w.due[i]
		// Recurse into the smaller half, loop on the larger.
		if i-lo < hi-i-1 {
			w.quicksort(s, lo, i)
			lo = i + 1
		} else {
			w.quicksort(s, i+1, hi)
			hi = i
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && s.less(w.due[j], w.due[j-1]); j-- {
			w.due[j], w.due[j-1] = w.due[j-1], w.due[j]
		}
	}
}

// --- overflow min-heap, ordered by (when, seq); entry.next holds the
// heap position so removal is O(log n) ---

func (w *wheel) heapPush(s *Simulator, idx int32) {
	w.overflow = append(w.overflow, idx)
	w.heapUp(s, len(w.overflow)-1)
}

func (w *wheel) heapRemove(s *Simulator, pos int) {
	n := len(w.overflow) - 1
	if pos != n {
		w.heapSet(s, pos, w.overflow[n])
	}
	w.overflow = w.overflow[:n]
	if pos < n {
		if !w.heapDown(s, pos) {
			w.heapUp(s, pos)
		}
	}
}

func (w *wheel) heapSet(s *Simulator, pos int, idx int32) {
	w.overflow[pos] = idx
	s.ents[idx].next = int32(pos)
}

func (w *wheel) heapUp(s *Simulator, pos int) {
	idx := w.overflow[pos]
	for pos > 0 {
		parent := (pos - 1) / 2
		if !s.less(idx, w.overflow[parent]) {
			break
		}
		w.heapSet(s, pos, w.overflow[parent])
		pos = parent
	}
	w.heapSet(s, pos, idx)
}

// heapDown reports whether the entry moved.
func (w *wheel) heapDown(s *Simulator, pos int) bool {
	idx := w.overflow[pos]
	start := pos
	n := len(w.overflow)
	for {
		child := 2*pos + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.less(w.overflow[r], w.overflow[child]) {
			child = r
		}
		if !s.less(w.overflow[child], idx) {
			break
		}
		w.heapSet(s, pos, w.overflow[child])
		pos = child
	}
	w.heapSet(s, pos, idx)
	return pos > start
}
