package gcs

import "testing"

func TestDupFilter(t *testing.T) {
	type step struct {
		peer string
		oseq uint64
		dup  bool
	}
	cases := []struct {
		name  string
		steps []step
		// high and sparse are the expected end state for peer "a".
		high   uint64
		sparse int
	}{
		{"in order", []step{{"a", 1, false}, {"a", 2, false}, {"a", 3, false}}, 3, 0},
		{"duplicate", []step{{"a", 1, false}, {"a", 1, true}, {"a", 2, false}, {"a", 1, true}, {"a", 2, true}}, 2, 0},
		{"gap then fill compacts", []step{
			{"a", 1, false}, {"a", 3, false}, {"a", 4, false}, {"a", 3, true}, // 3 and 4 wait above the gap
			{"a", 2, false}, // fills it: 2, 3, 4 fold into the watermark
			{"a", 4, true}, {"a", 5, false},
		}, 5, 0},
		{"open gap stays sparse", []step{{"a", 2, false}, {"a", 2, true}, {"a", 5, false}}, 0, 2},
		{"peers are independent", []step{
			{"a", 1, false}, {"b", 1, false}, {"b", 2, false}, {"a", 2, false}, {"b", 1, true}, {"a", 3, false},
		}, 3, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDupFilter()
			for i, s := range tc.steps {
				if got := d.seen(s.peer, s.oseq); got != s.dup {
					t.Fatalf("step %d: seen(%q, %d) = %v, want %v", i, s.peer, s.oseq, got, s.dup)
				}
			}
			if d.high["a"] != tc.high || len(d.sparse["a"]) != tc.sparse {
				t.Fatalf("end state for a: high %d with %d sparse, want %d with %d",
					d.high["a"], len(d.sparse["a"]), tc.high, tc.sparse)
			}
		})
	}
}
