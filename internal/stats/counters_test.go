package stats

import (
	"reflect"
	"testing"
)

type counterInner struct {
	N   uint64
	Arr [3]uint64
}

type counterElem struct {
	ID int
	C  uint64
}

type counterSample struct {
	A     uint64
	In    counterInner
	Elems []counterElem
	Ptr   *int
	Kind  int
	live  uint64
}

func TestCounterArithmetic(t *testing.T) {
	p1, p2 := new(int), new(int)
	a := counterSample{
		A: 10, In: counterInner{N: 5, Arr: [3]uint64{1, 2, 3}},
		Elems: []counterElem{{ID: 0, C: 7}, {ID: 1, C: 8}},
		Ptr:   p1, Kind: 1, live: 99,
	}
	b := counterSample{
		A: 3, In: counterInner{N: 2, Arr: [3]uint64{1, 1, 1}},
		Elems: []counterElem{{ID: 5, C: 2}, {ID: 6, C: 3}},
		Ptr:   p2, Kind: 2, live: 42,
	}
	snapA, snapB := a, b
	snapA.Elems = append([]counterElem(nil), a.Elems...)
	snapB.Elems = append([]counterElem(nil), b.Elems...)

	cases := []struct {
		name      string
		got, want counterSample
	}{
		{"add", AddCounters(a, b), counterSample{
			A: 13, In: counterInner{N: 7, Arr: [3]uint64{2, 3, 4}},
			Elems: []counterElem{{ID: 0, C: 9}, {ID: 1, C: 11}},
			Ptr:   p1, Kind: 1, live: 99,
		}},
		{"sub", SubCounters(a, b), counterSample{
			A: 7, In: counterInner{N: 3, Arr: [3]uint64{0, 1, 2}},
			Elems: []counterElem{{ID: 0, C: 5}, {ID: 1, C: 5}},
			Ptr:   p1, Kind: 1, live: 99,
		}},
		{"nil left slice takes the right one", AddCounters(counterSample{}, b), counterSample{
			A: 3, In: counterInner{N: 2, Arr: [3]uint64{1, 1, 1}},
			Elems: []counterElem{{ID: 5, C: 2}, {ID: 6, C: 3}},
		}},
		{"nil right slice keeps the left one", SubCounters(a, counterSample{}), a},
		{"(a+b)-b", SubCounters(AddCounters(a, b), b), a},
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, c.got, c.want)
		}
	}
	if !reflect.DeepEqual(a, snapA) || !reflect.DeepEqual(b, snapB) {
		t.Errorf("inputs modified:\n a %+v\n b %+v", a, b)
	}

	// Results own their slices: writing through one reaches no input.
	AddCounters(a, b).Elems[0].C = 1000
	AddCounters(counterSample{}, b).Elems[0].C = 1000
	SubCounters(a, counterSample{}).Elems[0].C = 1000
	if a.Elems[0].C != 7 || b.Elems[0].C != 2 {
		t.Errorf("result aliases an input slice: a %+v, b %+v", a.Elems, b.Elems)
	}

	// Two empty slices stay as they were: nil is not turned into empty.
	if got := AddCounters(counterSample{}, counterSample{}); got.Elems != nil {
		t.Errorf("nil + nil slices = %#v, want nil", got.Elems)
	}
}

func TestCounterArithmeticLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("combining slices of different lengths did not panic")
		}
	}()
	AddCounters([]uint64{1, 2}, []uint64{1})
}
