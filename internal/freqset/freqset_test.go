package freqset

import (
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	s := New(10)
	if s.Len() != 0 {
		t.Fatalf("new set has Len %d", s.Len())
	}
	for f := 1; f <= 10; f++ {
		if s.Contains(f) {
			t.Fatalf("empty set contains %d", f)
		}
	}
}

func TestAddContains(t *testing.T) {
	s := New(130) // spans multiple words
	for _, f := range []int{1, 64, 65, 128, 129, 130} {
		s.Add(f)
		if !s.Contains(f) {
			t.Fatalf("Contains(%d) false after Add", f)
		}
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(5)
	s.Add(3)
	s.Add(3)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after double Add", s.Len())
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(5)
	s.Add(5)
	if s.Contains(0) || s.Contains(6) || s.Contains(-1) {
		t.Fatal("Contains reported membership outside universe")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(6) on universe 5 did not panic")
		}
	}()
	New(5).Add(6)
}

func TestFromSliceAndSlice(t *testing.T) {
	s := FromSlice(10, []int{7, 2, 9, 2})
	got := s.Slice()
	want := []int{2, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestClear(t *testing.T) {
	s := FromSlice(100, []int{1, 50, 100})
	s.Clear()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Clear", s.Len())
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice(10, []int{1, 5})
	b := FromSlice(10, []int{5, 1})
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	b.Add(6)
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal")
	}
	if a.Equal(New(11)) {
		t.Fatal("different universes reported equal")
	}
}

func TestString(t *testing.T) {
	if got := FromSlice(10, []int{3, 1}).String(); got != "{1, 3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(3).String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: Slice round-trips through FromSlice.
func TestQuickSliceRoundTrip(t *testing.T) {
	f := func(members []uint8) bool {
		const universe = 100
		s := New(universe)
		for _, m := range members {
			s.Add(int(m)%universe + 1)
		}
		return FromSlice(universe, s.Slice()).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
