package kv

import (
	"bytes"
	"sort"
)

// Supervalue cell-list manipulation. Cells are kept sorted by Key under
// bytes.Compare with unique keys; these methods maintain that
// invariant. They mutate the receiver in place, so they are only for
// private values (NewSuper, Clone); Op.Apply builds copy-on-write
// results instead (see the sharing contract on Value).

// cellIndex returns the position of key in the cell list and whether an
// exact match exists. Without a match, the position is the insertion
// point.
func (v *Value) cellIndex(key []byte) (int, bool) {
	i := sort.Search(len(v.Cells), func(i int) bool {
		return bytes.Compare(v.Cells[i].Key, key) >= 0
	})
	if i < len(v.Cells) && bytes.Equal(v.Cells[i].Key, key) {
		return i, true
	}
	return i, false
}

// ListAdd inserts a cell, replacing the value if the key exists.
func (v *Value) ListAdd(key, value []byte) {
	key = append([]byte(nil), key...)
	value = append([]byte(nil), value...)
	i, found := v.cellIndex(key)
	if found {
		v.Cells[i].Value = value
		return
	}
	v.Cells = append(v.Cells, Cell{})
	copy(v.Cells[i+1:], v.Cells[i:])
	v.Cells[i] = Cell{Key: key, Value: value}
}

// ListDelRange removes all cells with keys in [from, to). A nil from
// means unbounded below; a nil to means unbounded above.
func (v *Value) ListDelRange(from, to []byte) {
	lo := 0
	if from != nil {
		lo, _ = v.cellIndex(from)
	}
	hi := len(v.Cells)
	if to != nil {
		hi, _ = v.cellIndex(to)
	}
	if lo >= hi {
		return
	}
	v.Cells = append(v.Cells[:lo], v.Cells[hi:]...)
}

// ListGet returns the value of the cell with the given key.
func (v *Value) ListGet(key []byte) ([]byte, bool) {
	i, found := v.cellIndex(key)
	if !found {
		return nil, false
	}
	return v.Cells[i].Value, true
}

// ListCeil returns the first cell with Key >= key, if any.
func (v *Value) ListCeil(key []byte) (Cell, bool) {
	i, _ := v.cellIndex(key)
	if i >= len(v.Cells) {
		return Cell{}, false
	}
	return v.Cells[i], true
}

// NumCells returns the number of cells.
func (v *Value) NumCells() int { return len(v.Cells) }

// InBounds reports whether key falls within the supervalue's fence
// interval [LowKey, HighKey).
func (v *Value) InBounds(key []byte) bool {
	if v.LowKey != nil && bytes.Compare(key, v.LowKey) < 0 {
		return false
	}
	if v.HighKey != nil && bytes.Compare(key, v.HighKey) >= 0 {
		return false
	}
	return true
}
