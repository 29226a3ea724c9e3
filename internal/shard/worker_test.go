package shard

import (
	"encoding/json"
	"testing"
)

func TestPartialAdd(t *testing.T) {
	a := Partial{N: 10, Sampled: 4, Positives: 2}
	a.Add(Partial{N: 5, Sampled: 1, Positives: 1})
	if a != (Partial{N: 15, Sampled: 5, Positives: 3}) {
		t.Fatalf("Add = %+v", a)
	}
	// A tally's cell is inlined in the count_all reply: the /v1/shard bytes
	// depend on these field names.
	b, err := json.Marshal(Tally{Partial: a, Fresh: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"n":15,"sampled":5,"positives":3,"fresh":2}`; string(b) != want {
		t.Fatalf("tally encodes as %s, want %s", b, want)
	}
}

func TestPartialValidate(t *testing.T) {
	ok := []Partial{{}, {N: 5, Sampled: 5, Positives: 5}, {N: 9, Sampled: 3, Positives: 0}}
	for _, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", p, err)
		}
	}
	bad := []Partial{
		{N: 2, Sampled: 3},
		{N: 5, Sampled: 2, Positives: 3},
		{N: -1},
		{N: 1, Sampled: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", p)
		}
	}
}
