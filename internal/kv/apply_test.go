package kv

import (
	"fmt"
	"testing"
)

// Op.Apply builds copy-on-write results: each result owns a new Cells
// array and shares every byte slice with its base. These tests check
// that no result writes through to its base, to a sibling derived from
// the same base, or to the array behind a windowed view.

// leaf returns a supervalue with n cells keyed k0000, k0002, k0004, ...
func leaf(n int) *Value {
	v := NewSuper()
	v.Attrs[1] = 11
	v.LowKey = []byte("k")
	v.HighKey = []byte("l")
	for i := 0; i < n; i++ {
		v.ListAdd([]byte(fmt.Sprintf("k%04d", 2*i)), []byte(fmt.Sprintf("v%d", i)))
	}
	return v
}

// scribble edits v through everything a Value owns: its cell array
// (element writes, an in-place delete, appends), its attributes and its
// fence-key headers. Byte contents are never written: those are shared.
func scribble(v *Value) {
	if len(v.Cells) > 0 {
		v.Cells[0] = Cell{Key: []byte("!scribbled"), Value: []byte("!")}
	}
	if len(v.Cells) > 2 {
		v.ListDelRange(v.Cells[1].Key, v.Cells[2].Key)
	}
	v.ListAdd([]byte("k0003"), []byte("scribbled"))
	v.ListAdd([]byte("zzzz"), []byte("scribbled"))
	v.Cells = append(v.Cells, Cell{Key: []byte("zzzzz")})
	v.Attrs[1]++
	v.LowKey = []byte("!")
	v.HighKey = nil
}

func TestOpApplyNeverMutatesBaseOrSibling(t *testing.T) {
	ops := map[string]*Op{
		"add-new":       {Kind: OpListAdd, Cell: Cell{Key: []byte("k0005"), Value: []byte("new")}},
		"add-replace":   {Kind: OpListAdd, Cell: Cell{Key: []byte("k0004"), Value: []byte("replaced")}},
		"add-first":     {Kind: OpListAdd, Cell: Cell{Key: []byte("a"), Value: []byte("first")}},
		"add-last":      {Kind: OpListAdd, Cell: Cell{Key: []byte("z"), Value: []byte("last")}},
		"del-range":     {Kind: OpListDelRange, From: []byte("k0002"), To: []byte("k0007")},
		"del-one":       {Kind: OpListDelRange, From: []byte("k0004"), To: []byte("k0004\x00")},
		"del-all":       {Kind: OpListDelRange},
		"del-none":      {Kind: OpListDelRange, From: []byte("x"), To: []byte("y")},
		"attr":          {Kind: OpAttrSet, Attr: 3, Num: 99},
		"bounds":        {Kind: OpSetBounds, Low: []byte("b"), High: []byte("c")},
		"bounds-open":   {Kind: OpSetBounds},
		"put":           {Kind: OpPut, Value: leaf(3)},
		"put-plain":     {Kind: OpPut, Value: NewPlain([]byte("plain"))},
		"delete":        {Kind: OpDelete},
		"add-to-absent": {Kind: OpListAdd, Cell: Cell{Key: []byte("k"), Value: []byte("v")}},
	}
	// A windowed view of a larger leaf: its Cells slice ends before the
	// backing array does, so an append into it would overwrite cells of
	// the full leaf.
	full := leaf(12)
	view := &Value{Kind: KindSuper, Attrs: full.Attrs, LowKey: full.LowKey, HighKey: full.HighKey,
		Cells: full.WindowCells([]byte("k0002"), []byte("k0010"), 0)}
	if cap(view.Cells) <= len(view.Cells) {
		t.Fatal("test setup: the window has no spare capacity")
	}
	bases := map[string]func() *Value{
		"leaf":   func() *Value { return leaf(6) },
		"window": func() *Value { return view },
	}
	for bname, mk := range bases {
		for n1, op1 := range ops {
			for n2, op2 := range ops {
				base := mk()
				if n1 == "add-to-absent" || n2 == "add-to-absent" {
					base = nil
				}
				baseWas := base.Clone()
				fullWas := full.Clone()
				fullCells := full.Cells[:cap(full.Cells)]
				fullCellsWas := append([]Cell(nil), fullCells...)

				r1, err := op1.Apply(base)
				if err != nil {
					t.Fatalf("%s: %s: %v", bname, n1, err)
				}
				r2, err := op2.Apply(base)
				if err != nil {
					t.Fatalf("%s: %s: %v", bname, n2, err)
				}
				r1Was, r2Was := r1.Clone(), r2.Clone()
				op1Was, op2Was := op1.Value.Clone(), op2.Value.Clone()

				check := func(stage string) {
					t.Helper()
					switch {
					case !base.Equal(baseWas):
						t.Fatalf("%s: %s then %s: %s mutated the base", bname, n1, n2, stage)
					case !full.Equal(fullWas):
						t.Fatalf("%s: %s then %s: %s mutated the windowed leaf", bname, n1, n2, stage)
					case !op1.Value.Equal(op1Was) || !op2.Value.Equal(op2Was):
						t.Fatalf("%s: %s then %s: %s mutated a Put op's value", bname, n1, n2, stage)
					}
					for i := range fullCells {
						if string(fullCells[i].Key) != string(fullCellsWas[i].Key) {
							t.Fatalf("%s: %s then %s: %s wrote past the window into cell %d", bname, n1, n2, stage, i)
						}
					}
				}
				check("applying")
				if r1 != nil {
					scribble(r1)
				}
				check("editing the first result")
				if !r2.Equal(r2Was) {
					t.Fatalf("%s: editing the %s result changed the sibling %s result", bname, n1, n2)
				}
				if r2 != nil {
					scribble(r2)
				}
				check("editing the second result")
				if r1 != nil && r1.Kind == KindSuper && r1.Equal(r1Was) {
					t.Fatalf("%s: %s: scribble left the result unchanged", bname, n1)
				}
			}
		}
	}
}

func TestOpApplyListAddAllocsIndependentOfLeafSize(t *testing.T) {
	allocs := func(n int) float64 {
		base := leaf(n)
		op := &Op{Kind: OpListAdd, Cell: Cell{Key: []byte("k0005"), Value: []byte("new")}}
		return testing.AllocsPerRun(100, func() {
			if _, err := op.Apply(base); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	if small != large {
		t.Fatalf("one-cell ListAdd: %v allocs on a 10-cell leaf, %v on a 1000-cell leaf", small, large)
	}
}
